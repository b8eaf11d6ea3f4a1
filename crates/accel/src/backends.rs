//! The specialized backends.
//!
//! * [`QuantumBackend`] — Shor factoring, Grover search, swap-test DNA
//!   similarity on the state-vector simulator, with device time from the
//!   micro-architecture timing model.
//! * [`OscillatorBackend`] — the calibrated coupled-oscillator distance
//!   primitive (device time: one readout window per comparison) and
//!   vertex colouring on the seeded phase-reduced model of the same array
//!   (device time: the fixed settling schedule in oscillator periods, times
//!   the calibrated pair's period).
//! * [`MemBackend`] — the DMM SAT solver and QUBO minimization through
//!   the DMM's MaxSAT reduction, as the best of short restarts (device
//!   time for both: the simulated physical time `steps · dt` of the steps
//!   integrated).
//!
//! # Example
//!
//! ```no_run
//! use accel::accelerator::Accelerator;
//! use accel::backends::MemBackend;
//! use accel::kernel::Kernel;
//! use mem::generators::planted_3sat;
//!
//! let inst = planted_3sat(20, 4.0, 1)?;
//! let mut backend = MemBackend::new(3);
//! let run = backend.execute(&Kernel::SolveSat { formula: inst.formula })?;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::accelerator::Accelerator;
use crate::family::{FamilyKernel, FamilyResult};
use crate::kernel::{CostEstimate, CostReport, Kernel, KernelExecution, KernelResult};
use crate::AccelError;
use mem::dmm::{DmmParams, DmmSolver, DT};
use mem::maxsat::MaxSatDmmParams;
use numerics::rng::SeedStream;
use osc::coloring::{color_graph, settle_seconds, ColoringConfig, STEPS};
use osc::norms::{NormRegime, OscillatorDistance};
use quantum::microarch::{MEASURE_NS, TWO_QUBIT_NS};
use quantum::{dna, grover, shor};

const QUANTUM_NAME: &str = "quantum";
const OSC_NAME: &str = "oscillator";
const MEM_NAME: &str = "memcomputing";

/// Oscillator FAST block power: "0.936 mW, significantly smaller than
/// … 3 mW" for the 32 nm CMOS equivalent (paper §III; see
/// `osc::power` / `vision::energy` for the derivation from the circuit
/// model).
const OSC_BLOCK_WATTS: f64 = 0.936e-3;

/// Modelled quantum control-plane power (cryo drive + readout
/// electronics per active chip) for energy estimates.
const QUANTUM_CONTROL_WATTS: f64 = 25.0;

/// Modelled memcomputing crossbar power for energy estimates.
const MEM_CELL_WATTS: f64 = 10e-3;

/// Swap-test shots per quantum DNA similarity.
const DNA_SHOTS: usize = 500;

/// The CPU backend's seconds per abstract operation: a generously fast
/// classical core, so the *relative* scaling against the specialized
/// backends is what shows up in reports.
pub(crate) const CPU_SECONDS_PER_OP: f64 = 1e-9;

/// Modelled CPU core power for energy estimates. A conservative 1 W
/// scalar-core budget: generous next to the paper's 3 mW figure for a
/// single 32 nm CMOS comparison *block*, but the CPU here stands in for a
/// whole general-purpose core, not one datapath.
pub(crate) const CPU_WATTS: f64 = 1.0;

/// Builds the full heterogeneous pool — quantum, oscillator, memcomputing,
/// and the CPU fallback — in the priority order
/// [`crate::host::DispatchPolicy::PreferSpecialized`] expects.
///
/// This is the constructor the `runtime` crate's workers use: each worker
/// thread owns its own pool, so backends only need `Send`, not `Sync`.
///
/// # Errors
///
/// Propagates oscillator calibration failures.
pub fn standard_pool(
    seed: u64,
) -> Result<Vec<Box<dyn crate::accelerator::Accelerator>>, AccelError> {
    let mut seeds = SeedStream::new(seed);
    let quantum = QuantumBackend::new(seeds.next_seed());
    let mem = MemBackend::new(seeds.next_seed());
    let cpu = crate::accelerator::CpuBackend::new(seeds.next_seed());
    // Drawn last, so the other three keep the seeds they always had.
    let oscillator = OscillatorBackend::new(seeds.next_seed())?;
    Ok(vec![
        Box::new(quantum),
        Box::new(oscillator),
        Box::new(mem),
        Box::new(cpu),
    ])
}

/// The quantum accelerator (Fig. 2's stack over the state-vector chip).
#[derive(Debug, Clone)]
pub struct QuantumBackend {
    seeds: SeedStream,
}

impl QuantumBackend {
    /// Creates a quantum backend.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        QuantumBackend {
            seeds: SeedStream::new(seed),
        }
    }

    fn gate_time(ops: u64) -> f64 {
        // Coarse device-time model: every abstract quantum op at the
        // two-qubit latency.
        ops as f64 * TWO_QUBIT_NS * 1e-9
    }

    /// Predicted gate count for `kernel`, mirroring the op accounting in
    /// [`Accelerator::execute`] but computed without touching the RNG;
    /// `None` for a kernel this backend does not run.
    fn predicted_ops(kernel: &Kernel) -> Option<f64> {
        match kernel {
            // Shor is dominated by modular exponentiation over ~2b control
            // bits: O(b³) two-qubit-equivalents per order-finding attempt,
            // and typically a couple of attempts before a good base. Past
            // `shor::MAX_N` order finding refuses the modulus.
            Kernel::Factor { n } if *n <= shor::MAX_N => {
                let bits = (64 - n.leading_zeros()) as f64;
                Some(2.0 * 8.0 * bits.powi(3))
            }
            // Grover's iteration count is known in advance, so the gate
            // count is exactly the one `execute` reports.
            Kernel::Search { n_qubits, marked } => {
                Some(search_ops(grover::search_iterations(*n_qubits, marked), *n_qubits) as f64)
            }
            Kernel::DnaSimilarity { k, .. } => Some(dna_ops(*k) as f64),
            _ => None,
        }
    }
}

/// Gates of a Grover search: oracle + diffusion per iteration, ~2(n+1)
/// gates each.
fn search_ops(iterations: usize, n_qubits: usize) -> u64 {
    (iterations * 2 * (n_qubits + 1)) as u64
}

/// Gates of a DNA similarity estimate: per shot, a 2k-qubit swap test of
/// ≈ 3·2k CSWAP-equivalents.
fn dna_ops(k: usize) -> u64 {
    (DNA_SHOTS * 6 * k) as u64
}

impl Accelerator for QuantumBackend {
    fn name(&self) -> &str {
        QUANTUM_NAME
    }

    fn reseed(&mut self, seed: u64) {
        self.seeds.reseed(seed);
    }

    fn estimate(&self, kernel: &Kernel) -> Option<CostEstimate> {
        let ops = Self::predicted_ops(kernel)?;
        let mut seconds = ops * TWO_QUBIT_NS * 1e-9;
        if let Kernel::DnaSimilarity { .. } = kernel {
            seconds += DNA_SHOTS as f64 * MEASURE_NS * 1e-9;
        }
        Some(CostEstimate {
            device_seconds: seconds,
            energy_joules: seconds * QUANTUM_CONTROL_WATTS,
        })
    }

    fn execute(&mut self, kernel: &Kernel) -> Result<KernelExecution, AccelError> {
        let mut rng = self.seeds.next_rng();
        match kernel {
            Kernel::Factor { n } => {
                let outcome = shor::factor(*n, &mut rng, 50)
                    .map_err(|e| AccelError::backend(QUANTUM_NAME, e))?;
                let ops = outcome.quantum_ops.max(1);
                Ok(KernelExecution {
                    result: KernelResult::Factors(outcome.factors.0, outcome.factors.1),
                    cost: CostReport {
                        device_seconds: Self::gate_time(ops),
                        operations: ops,
                    },
                })
            }
            Kernel::Search { n_qubits, marked } => {
                let run = grover::search(*n_qubits, marked, &mut rng)
                    .map_err(|e| AccelError::backend(QUANTUM_NAME, e))?;
                let ops = search_ops(run.iterations, *n_qubits);
                Ok(KernelExecution {
                    result: KernelResult::Found(run.found),
                    cost: CostReport {
                        device_seconds: Self::gate_time(ops),
                        operations: ops,
                    },
                })
            }
            Kernel::DnaSimilarity { a, b, k } => {
                let s = dna::quantum_similarity(a, b, *k, DNA_SHOTS, &mut rng)
                    .map_err(|e| AccelError::backend(QUANTUM_NAME, e))?;
                let ops = dna_ops(*k);
                Ok(KernelExecution {
                    result: KernelResult::Similarity(s),
                    cost: CostReport {
                        device_seconds: Self::gate_time(ops) + DNA_SHOTS as f64 * MEASURE_NS * 1e-9,
                        operations: ops,
                    },
                })
            }
            other => Err(AccelError::Unsupported {
                backend: QUANTUM_NAME.into(),
                kernel: other.describe(),
            }),
        }
    }
}

/// The coupled-oscillator analog comparison backend.
#[derive(Debug, Clone)]
pub struct OscillatorBackend {
    /// Seeds the colouring starts; comparisons draw nothing.
    seeds: SeedStream,
    distance: OscillatorDistance,
    /// Readout window time per comparison (seconds).
    window_seconds: f64,
}

impl OscillatorBackend {
    /// Calibrates an oscillator backend in the shallow-norm regime.
    ///
    /// # Errors
    ///
    /// Propagates calibration failures.
    pub fn new(seed: u64) -> Result<Self, AccelError> {
        let config = NormRegime::Shallow.config();
        let distance = OscillatorDistance::calibrate(config, 0.62, 0.02, 9)
            .map_err(|e| AccelError::backend(OSC_NAME, e))?;
        // One 32-cycle readout window at a ~20 MHz oscillation.
        let window_seconds = 32.0 / 20e6;
        Ok(OscillatorBackend {
            seeds: SeedStream::new(seed),
            distance,
            window_seconds,
        })
    }
}

impl Accelerator for OscillatorBackend {
    fn name(&self) -> &str {
        OSC_NAME
    }

    fn reseed(&mut self, seed: u64) {
        self.seeds.reseed(seed);
    }

    fn estimate(&self, kernel: &Kernel) -> Option<CostEstimate> {
        match kernel {
            // Exactly one readout window per comparison, at the paper's
            // FAST block power.
            Kernel::Compare { .. } => Some(CostEstimate {
                device_seconds: self.window_seconds,
                energy_joules: self.window_seconds * OSC_BLOCK_WATTS,
            }),
            // The fixed settling schedule, with every vertex's oscillator
            // block powered for the duration.
            Kernel::Family(FamilyKernel::Coloring(spec)) => {
                let seconds = settle_seconds();
                Some(CostEstimate {
                    device_seconds: seconds,
                    energy_joules: seconds * OSC_BLOCK_WATTS * spec.n_vertices as f64,
                })
            }
            _ => None,
        }
    }

    fn execute(&mut self, kernel: &Kernel) -> Result<KernelExecution, AccelError> {
        match kernel {
            Kernel::Compare { x, y } => Ok(KernelExecution {
                result: KernelResult::Distance(
                    self.distance.distance(x.clamp(0.0, 1.0), y.clamp(0.0, 1.0)),
                ),
                cost: CostReport {
                    device_seconds: self.window_seconds,
                    operations: 1,
                },
            }),
            // The start is drawn from the job seed.
            Kernel::Family(FamilyKernel::Coloring(spec)) => {
                let config = ColoringConfig {
                    n_colors: spec.n_colors,
                    seed: self.seeds.next_seed(),
                    ..ColoringConfig::default()
                };
                let run = color_graph(spec.n_vertices, &spec.edges, &config)
                    .map_err(|e| AccelError::backend(OSC_NAME, e))?;
                Ok(KernelExecution {
                    result: KernelResult::Family(FamilyResult::Coloring {
                        colors: run.colors,
                        conflicts: run.conflicts as u64,
                    }),
                    cost: CostReport {
                        device_seconds: settle_seconds(),
                        operations: STEPS as u64,
                    },
                })
            }
            other => Err(AccelError::Unsupported {
                backend: OSC_NAME.into(),
                kernel: other.describe(),
            }),
        }
    }
}

/// The digital-memcomputing optimization backend.
#[derive(Debug, Clone)]
pub struct MemBackend {
    seeds: SeedStream,
    solver: DmmSolver,
    /// The QUBO schedule: restarts × steps per restart.
    qubo: MaxSatDmmParams,
}

impl MemBackend {
    /// Creates a memcomputing backend.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        MemBackend {
            seeds: SeedStream::new(seed),
            solver: DmmSolver::new(DmmParams::default()),
            qubo: MaxSatDmmParams::default(),
        }
    }

    /// The cost of a trajectory of `steps` at the DMM's integration step:
    /// `steps · DT` at the 1 ns RC time unit, at the crossbar's modelled
    /// power.
    fn trajectory_estimate(steps: f64) -> CostEstimate {
        let seconds = steps * DT * 1e-9;
        CostEstimate {
            device_seconds: seconds,
            energy_joules: seconds * MEM_CELL_WATTS,
        }
    }
}

impl Accelerator for MemBackend {
    fn name(&self) -> &str {
        MEM_NAME
    }

    fn reseed(&mut self, seed: u64) {
        self.seeds.reseed(seed);
    }

    fn estimate(&self, kernel: &Kernel) -> Option<CostEstimate> {
        match kernel {
            // The DMM's trajectory length grows roughly linearly in
            // instance size on satisfiable planted formulas.
            Kernel::SolveSat { formula } => Some(Self::trajectory_estimate(
                50.0 * (formula.n_vars() as f64 + formula.len() as f64),
            )),
            // The schedule's whole budget: a QUBO's optimum almost always
            // leaves clauses violated, so every restart runs to its end.
            Kernel::Family(FamilyKernel::Qubo(_)) => Some(Self::trajectory_estimate(
                f64::from(self.qubo.restarts) * self.qubo.dynamics.max_steps as f64,
            )),
            _ => None,
        }
    }

    fn execute(&mut self, kernel: &Kernel) -> Result<KernelExecution, AccelError> {
        match kernel {
            Kernel::SolveSat { formula } => {
                let seed = self.seeds.next_seed();
                let outcome = self
                    .solver
                    .solve(formula, seed)
                    .map_err(|e| AccelError::backend(MEM_NAME, e))?;
                Ok(KernelExecution {
                    result: KernelResult::SatSolution(
                        outcome.solution.as_ref().map(|a| a.to_bools()),
                    ),
                    cost: CostReport {
                        // The DMM's "device time" is its simulated physical
                        // time, scaled to an RC time unit of 1 ns.
                        device_seconds: outcome.time * 1e-9,
                        operations: outcome.steps,
                    },
                })
            }
            Kernel::Family(FamilyKernel::Qubo(spec)) => {
                let seed = self.seeds.next_seed();
                let found = spec
                    .build(MEM_NAME)?
                    .minimize_dmm_counted(self.qubo, seed)
                    .map_err(|e| AccelError::backend(MEM_NAME, e))?;
                Ok(KernelExecution {
                    result: KernelResult::Family(FamilyResult::Qubo {
                        bits: found.bits,
                        energy: found.energy,
                    }),
                    cost: CostReport {
                        // The steps integrated over every restart, at the
                        // same RC time unit as SAT.
                        device_seconds: Self::trajectory_estimate(found.steps as f64)
                            .device_seconds,
                        operations: found.steps,
                    },
                })
            }
            other => Err(AccelError::Unsupported {
                backend: MEM_NAME.into(),
                kernel: other.describe(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mem::generators::planted_3sat;

    #[test]
    fn quantum_backend_factors() {
        let mut q = QuantumBackend::new(1);
        let run = q.execute(&Kernel::Factor { n: 15 }).unwrap();
        match run.result {
            KernelResult::Factors(p, qf) => assert_eq!(p * qf, 15),
            other => panic!("unexpected {other:?}"),
        }
        assert!(run.cost.device_seconds > 0.0);
    }

    #[test]
    fn quantum_backend_searches() {
        let mut q = QuantumBackend::new(2);
        let run = q
            .execute(&Kernel::Search {
                n_qubits: 6,
                marked: vec![42],
            })
            .unwrap();
        assert_eq!(run.result, KernelResult::Found(42));
    }

    #[test]
    fn search_estimate_counts_the_items_execute_searches_for() {
        // The raw door passes marked lists through as submitted: repeats
        // and any order. Each item counts once on both sides.
        let mut q = QuantumBackend::new(3);
        for marked in [
            vec![5],
            vec![5, 5],
            vec![5, 5, 5, 5],
            vec![9, 5, 9],
            vec![700, 3, 700, 1023, 3],
        ] {
            let kernel = Kernel::Search {
                n_qubits: 10,
                marked,
            };
            let estimate = q.estimate(&kernel).unwrap();
            let run = q.execute(&kernel).unwrap();
            assert_eq!(
                estimate.device_seconds, run.cost.device_seconds,
                "{kernel:?}"
            );
        }
    }

    #[test]
    fn quantum_backend_rejects_sat() {
        let inst = planted_3sat(10, 3.0, 1).unwrap();
        let mut q = QuantumBackend::new(1);
        assert!(matches!(
            q.execute(&Kernel::SolveSat {
                formula: inst.formula
            }),
            Err(AccelError::Unsupported { .. })
        ));
    }

    #[test]
    fn mem_backend_solves_sat() {
        let inst = planted_3sat(15, 3.8, 4).unwrap();
        let mut m = MemBackend::new(3);
        let run = m
            .execute(&Kernel::SolveSat {
                formula: inst.formula.clone(),
            })
            .unwrap();
        match run.result {
            KernelResult::SatSolution(Some(bits)) => {
                let a = mem::assignment::Assignment::from_bools(&bits);
                assert!(inst.formula.is_satisfied(&a));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(run.cost.operations > 0);
    }

    #[test]
    fn oscillator_backend_compares() {
        let mut o = OscillatorBackend::new(1).unwrap();
        let near = o.execute(&Kernel::Compare { x: 0.5, y: 0.52 }).unwrap();
        let far = o.execute(&Kernel::Compare { x: 0.1, y: 0.9 }).unwrap();
        let (dn, df) = match (near.result, far.result) {
            (KernelResult::Distance(a), KernelResult::Distance(b)) => (a, b),
            other => panic!("unexpected {other:?}"),
        };
        assert!(df >= dn, "{dn} vs {df}");
    }

    #[test]
    fn support_matrices_disjoint() {
        let q = QuantumBackend::new(1);
        let m = MemBackend::new(1);
        let k = Kernel::Compare { x: 0.0, y: 0.0 };
        assert!(q.estimate(&k).is_none());
        assert!(m.estimate(&k).is_none());
    }

    #[test]
    fn quantum_estimates_factor_exactly_where_order_finding_runs() {
        let q = QuantumBackend::new(1);
        assert!(q.estimate(&Kernel::Factor { n: shor::MAX_N }).is_some());
        assert!(q.estimate(&Kernel::Factor { n: shor::MAX_N + 1 }).is_none());
    }

    #[test]
    fn coloring_estimates_follow_backends() {
        let kernel = Kernel::Family(FamilyKernel::Coloring(crate::family::ColoringSpec {
            n_vertices: 6,
            n_colors: 2,
            edges: vec![(0, 1), (2, 3)],
        }));
        let osc = OscillatorBackend::new(1).unwrap();
        let cpu = crate::accelerator::CpuBackend::new(1);
        let mem = MemBackend::new(1);
        assert!(cpu.estimate(&kernel).is_some());
        let e = osc.estimate(&kernel).expect("estimate");
        assert!(e.device_seconds > 0.0 && e.energy_joules > 0.0);
        assert!(mem.estimate(&kernel).is_none());
    }

    #[test]
    fn coloring_draws_its_start_from_the_job_seed_and_reports_its_estimate() {
        let mut edges: Vec<(usize, usize)> = (0..16).map(|v| (v, (v + 1) % 16)).collect();
        edges.extend([(0, 5), (3, 11)]);
        let kernel = Kernel::Family(FamilyKernel::Coloring(crate::family::ColoringSpec {
            n_vertices: 16,
            n_colors: 3,
            edges,
        }));
        let mut osc = OscillatorBackend::new(1).unwrap();
        let estimate = osc.estimate(&kernel).unwrap();
        osc.reseed(42);
        let first = osc.execute(&kernel).unwrap();
        // A different history before the same job seed changes nothing.
        osc.reseed(7);
        let other = osc.execute(&kernel).unwrap();
        osc.reseed(42);
        let again = osc.execute(&kernel).unwrap();
        assert_eq!(first, again);
        assert_ne!(first.result, other.result, "the seed draws the start");
        assert_eq!(estimate.device_seconds, first.cost.device_seconds);
        assert!(matches!(
            first.result,
            KernelResult::Family(FamilyResult::Coloring { conflicts: 0, .. })
        ));
    }

    #[test]
    fn standard_pool_registers_in_priority_order() {
        let names: Vec<String> = standard_pool(7)
            .unwrap()
            .iter()
            .map(|b| b.name().to_string())
            .collect();
        assert_eq!(names, vec!["quantum", "oscillator", "memcomputing", "cpu"]);
    }
}

//! The `Accelerator` trait and the CPU reference backend.
//!
//! Every backend — CPU, quantum, oscillator, memcomputing — implements
//! [`Accelerator`]; the host runtime ([`crate::host`]) owns them as trait
//! objects and dispatches kernels. The CPU backend executes every kernel
//! with a conventional classical algorithm, so there is always a correct
//! (if slow) fallback and a von-Neumann baseline for every comparison.
//!
//! # Example
//!
//! ```
//! use accel::accelerator::{Accelerator, CpuBackend};
//! use accel::kernel::{Kernel, KernelResult};
//!
//! let mut cpu = CpuBackend::new(7);
//! let run = cpu.execute(&Kernel::Compare { x: 0.25, y: 0.75 })?;
//! match run.result {
//!     KernelResult::Distance(d) => assert!((d - 0.5).abs() < 1e-12),
//!     other => panic!("unexpected {other:?}"),
//! }
//! # Ok::<(), accel::AccelError>(())
//! ```

use crate::backends::{CPU_SECONDS_PER_OP, CPU_WATTS};
use crate::family::{ColoringSpec, FamilyKernel, FamilyResult};
use crate::kernel::{CostEstimate, CostReport, Kernel, KernelExecution, KernelResult};
use crate::AccelError;
use mem::dpll::Dpll;
use numerics::rng::{rng_from_seed, Rng};
use quantum::dna::kmer_profile;
use quantum::numtheory::trial_division;

/// A device that can execute some subset of kernels.
///
/// Object-safe so the host can hold heterogeneous backends, and `Send` so
/// the `runtime` crate's worker threads can own backend sets.
pub trait Accelerator: Send {
    /// A stable backend name for reports and errors.
    fn name(&self) -> &str;

    /// Executes a kernel.
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::Unsupported`] for a kernel this backend does
    /// not run, or a wrapped backend failure.
    fn execute(&mut self, kernel: &Kernel) -> Result<KernelExecution, AccelError>;

    /// Predicts the cost of executing `kernel` on this backend, *without*
    /// executing it; `None` means this backend does not run the kernel.
    ///
    /// This is the planner's one question to a backend: it plans a kernel
    /// only onto the backends that estimate it. Estimates must be pure
    /// functions of the kernel (no RNG, no mutable state) so planning
    /// stays deterministic.
    fn estimate(&self, kernel: &Kernel) -> Option<CostEstimate>;

    /// Resets the backend's stochastic state to a deterministic seed.
    ///
    /// Concurrent serving dispatches jobs to whichever backend instance is
    /// free, so a backend that advances an internal RNG per execution would
    /// make job results depend on scheduling history. Reseeding before each
    /// execution pins every job's result to its own seed instead. The
    /// default is a no-op for backends with no stochastic state.
    fn reseed(&mut self, _seed: u64) {}
}

/// The classical (von Neumann) reference backend.
///
/// Cost model: a fixed 1 ns per abstract operation at 1 W
/// (`backends::{CPU_SECONDS_PER_OP, CPU_WATTS}`).
#[derive(Debug, Clone)]
pub struct CpuBackend {
    seed: u64,
}

impl CpuBackend {
    /// Creates a CPU backend with a deterministic seed for its stochastic
    /// fallbacks.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        CpuBackend { seed }
    }

    /// Predicted abstract operation count for `kernel` — the calibrated
    /// asymptotics of the classical algorithms in [`CpuBackend::execute`].
    fn predicted_ops(&self, kernel: &Kernel) -> f64 {
        match kernel {
            // Trial division probes odd candidates up to √n: ~√n/2 tries.
            Kernel::Factor { n } => (*n as f64).sqrt() / 2.0 + 1.0,
            // Linear scan: expected (N+1)/(M+1) probes before a hit.
            // Computed in f64 (capped) so absurd qubit counts estimate to a
            // huge-but-finite cost instead of overflowing a shift.
            Kernel::Search { n_qubits, marked } => {
                let space = ((*n_qubits).min(300) as f64).exp2();
                (space + 1.0) / (marked.len().max(1) as f64 + 1.0)
            }
            // Profile builds over both sequences plus dot products across
            // the 4^k k-mer space (capped as above).
            Kernel::DnaSimilarity { a, b, k } => {
                (a.len() + b.len()) as f64 + 3.0 * ((*k).min(150) as f64 * 2.0).exp2()
            }
            // DPLL on satisfiable planted instances stays near-polynomial:
            // roughly one unit of work per clause per √vars of depth.
            Kernel::SolveSat { formula } => {
                formula.len() as f64 * (1.0 + (formula.n_vars() as f64).sqrt())
            }
            // Subtract, abs, compare.
            Kernel::Compare { .. } => 3.0,
            // Greedy coloring touches each vertex and each edge a constant
            // number of times.
            Kernel::Family(FamilyKernel::Coloring(spec)) => {
                (spec.n_vertices + 2 * spec.edges.len()) as f64
            }
            // Greedy descent: a few full sweeps, each touching every
            // variable against every term.
            Kernel::Family(FamilyKernel::Qubo(spec)) => {
                (spec.n_vars * (spec.n_vars + spec.terms())) as f64
            }
        }
    }

    fn report(&self, result: KernelResult, operations: u64) -> KernelExecution {
        KernelExecution {
            result,
            cost: CostReport {
                device_seconds: operations as f64 * CPU_SECONDS_PER_OP,
                operations,
            },
        }
    }
}

impl Accelerator for CpuBackend {
    fn name(&self) -> &str {
        "cpu"
    }

    fn estimate(&self, kernel: &Kernel) -> Option<CostEstimate> {
        let seconds = self.predicted_ops(kernel) * CPU_SECONDS_PER_OP;
        Some(CostEstimate {
            device_seconds: seconds,
            energy_joules: seconds * CPU_WATTS,
        })
    }

    fn reseed(&mut self, seed: u64) {
        self.seed = seed;
    }

    fn execute(&mut self, kernel: &Kernel) -> Result<KernelExecution, AccelError> {
        match kernel {
            Kernel::Factor { n } => {
                let (factor, ops) = trial_division(*n);
                let f = factor.ok_or_else(|| {
                    AccelError::backend(
                        "cpu",
                        std::io::Error::new(
                            std::io::ErrorKind::InvalidInput,
                            format!("{n} has no nontrivial factor"),
                        ),
                    )
                })?;
                Ok(self.report(KernelResult::Factors(f, n / f), ops))
            }
            Kernel::Search { n_qubits, marked } => {
                // Linear scan: expected N/2 probes; executed deterministically.
                // Past usize::BITS qubits every representable item fits.
                let space = u32::try_from(*n_qubits)
                    .ok()
                    .and_then(|n| 1usize.checked_shl(n))
                    .unwrap_or(usize::MAX);
                let mut probes = 0u64;
                let mut found = None;
                for item in 0..space {
                    probes += 1;
                    if marked.contains(&item) {
                        found = Some(item);
                        break;
                    }
                }
                let item = found.ok_or_else(|| {
                    AccelError::backend(
                        "cpu",
                        std::io::Error::new(
                            std::io::ErrorKind::NotFound,
                            "no marked item in search space",
                        ),
                    )
                })?;
                Ok(self.report(KernelResult::Found(item), probes))
            }
            Kernel::DnaSimilarity { a, b, k } => {
                // Classical cosine similarity of k-mer profiles, squared to
                // match the quantum overlap² convention.
                let pa = kmer_profile(a, *k).map_err(|e| AccelError::backend("cpu", e))?;
                let pb = kmer_profile(b, *k).map_err(|e| AccelError::backend("cpu", e))?;
                let dot: f64 = pa.iter().zip(&pb).map(|(x, y)| x * y).sum();
                let na: f64 = pa.iter().map(|x| x * x).sum::<f64>().sqrt();
                let nb: f64 = pb.iter().map(|x| x * x).sum::<f64>().sqrt();
                let cos = dot / (na * nb);
                // Op count: profile builds + dot products.
                let ops = (a.len() + b.len() + 3 * pa.len()) as u64;
                Ok(self.report(KernelResult::Similarity(cos * cos), ops))
            }
            Kernel::SolveSat { formula } => {
                let result = Dpll::new(10_000_000).solve(formula);
                let ops = result.decisions + result.propagations;
                Ok(self.report(
                    KernelResult::SatSolution(result.solution.map(|a| a.to_bools())),
                    ops.max(1),
                ))
            }
            Kernel::Compare { x, y } => Ok(self.report(KernelResult::Distance((x - y).abs()), 3)),
            // Both fallbacks report exactly the work `predicted_ops`
            // models, so the CPU's estimate for them is exact.
            Kernel::Family(FamilyKernel::Coloring(spec)) => {
                let (colors, conflicts) = greedy_coloring(spec);
                Ok(self.report(
                    KernelResult::Family(FamilyResult::Coloring { colors, conflicts }),
                    self.predicted_ops(kernel) as u64,
                ))
            }
            Kernel::Family(FamilyKernel::Qubo(spec)) => {
                let q = spec.build("cpu")?;
                let mut rng = rng_from_seed(self.seed);
                let start: Vec<bool> = (0..spec.n_vars).map(|_| rng.gen_bool(0.5)).collect();
                let (bits, energy) = q.minimize_greedy(&start);
                Ok(self.report(
                    KernelResult::Family(FamilyResult::Qubo { bits, energy }),
                    self.predicted_ops(kernel) as u64,
                ))
            }
        }
    }
}

/// Deterministic greedy (Welsh–Powell order) coloring: vertices by
/// descending degree (index-tiebroken), each taking the lowest color
/// unused among its already-colored neighbors, wrapping to color 0 when
/// the palette is exhausted. Returns the colors and the number of
/// monochromatic edges.
fn greedy_coloring(spec: &ColoringSpec) -> (Vec<usize>, u64) {
    let mut degree = vec![0usize; spec.n_vertices];
    for &(a, b) in &spec.edges {
        degree[a] += 1;
        degree[b] += 1;
    }
    let mut order: Vec<usize> = (0..spec.n_vertices).collect();
    order.sort_by_key(|&v| (std::cmp::Reverse(degree[v]), v));
    let mut adjacency = vec![Vec::new(); spec.n_vertices];
    for &(a, b) in &spec.edges {
        adjacency[a].push(b);
        adjacency[b].push(a);
    }
    let mut colors = vec![usize::MAX; spec.n_vertices];
    for &v in &order {
        let mut used = vec![false; spec.n_colors];
        for &u in &adjacency[v] {
            if colors[u] != usize::MAX {
                used[colors[u]] = true;
            }
        }
        colors[v] = used.iter().position(|&taken| !taken).unwrap_or(0);
    }
    let conflicts = spec
        .edges
        .iter()
        .filter(|&&(a, b)| colors[a] == colors[b])
        .count() as u64;
    (colors, conflicts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mem::generators::planted_3sat;

    #[test]
    fn cpu_estimates_everything() {
        let cpu = CpuBackend::new(1);
        assert!(cpu.estimate(&Kernel::Factor { n: 15 }).is_some());
        assert!(cpu.estimate(&Kernel::Compare { x: 0.0, y: 1.0 }).is_some());
    }

    #[test]
    fn cpu_factors() {
        let mut cpu = CpuBackend::new(1);
        let run = cpu.execute(&Kernel::Factor { n: 91 }).unwrap();
        match run.result {
            KernelResult::Factors(p, q) => assert_eq!(p * q, 91),
            other => panic!("unexpected {other:?}"),
        }
        assert!(run.cost.operations > 0);
    }

    #[test]
    fn cpu_factor_of_prime_errors() {
        let mut cpu = CpuBackend::new(1);
        assert!(cpu.execute(&Kernel::Factor { n: 13 }).is_err());
    }

    #[test]
    fn cpu_search_scans_linearly() {
        let mut cpu = CpuBackend::new(1);
        let run = cpu
            .execute(&Kernel::Search {
                n_qubits: 8,
                marked: vec![200],
            })
            .unwrap();
        assert_eq!(run.result, KernelResult::Found(200));
        assert_eq!(run.cost.operations, 201);
    }

    #[test]
    fn cpu_solves_sat() {
        let inst = planted_3sat(15, 3.5, 2).unwrap();
        let mut cpu = CpuBackend::new(1);
        let run = cpu
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
    }

    #[test]
    fn cpu_dna_similarity_in_unit_interval() {
        let mut cpu = CpuBackend::new(1);
        let run = cpu
            .execute(&Kernel::DnaSimilarity {
                a: "ACGTACGT".into(),
                b: "ACGTTCGT".into(),
                k: 2,
            })
            .unwrap();
        match run.result {
            KernelResult::Similarity(s) => assert!((0.0..=1.0).contains(&s)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn qubo_executes_deterministically_on_cpu() {
        let kernel = Kernel::Family(FamilyKernel::Qubo(crate::family::QuboSpec {
            n_vars: 6,
            linear: vec![(0, 1.0), (5, -2.0)],
            quadratic: vec![(0, 1, 1.5), (2, 3, -1.0)],
        }));
        let mut cpu = CpuBackend::new(1);
        cpu.reseed(42);
        let a = cpu.execute(&kernel).expect("execute");
        cpu.reseed(42);
        let b = cpu.execute(&kernel).expect("execute");
        assert_eq!(a, b);
        let KernelResult::Family(FamilyResult::Qubo { bits, energy }) = &a.result else {
            panic!("unexpected {:?}", a.result);
        };
        assert_eq!(bits.len(), 6);
        assert!(energy.is_finite());
        // Greedy descent never lands above the all-false baseline it
        // could reach by flipping everything off.
        let spec_value: f64 = 0.0;
        assert!(*energy <= spec_value + 1e-12 || !bits.iter().any(|&b| b));
    }

    #[test]
    fn coloring_greedy_colors_bipartite_graphs_exactly() {
        let kernel = Kernel::Family(FamilyKernel::Coloring(ColoringSpec {
            n_vertices: 6,
            n_colors: 2,
            edges: vec![(0, 3), (0, 4), (1, 3), (1, 5), (2, 4), (2, 5)],
        }));
        let run = CpuBackend::new(1).execute(&kernel).expect("execute");
        let KernelResult::Family(FamilyResult::Coloring { colors, conflicts }) = run.result else {
            panic!("unexpected result");
        };
        assert_eq!(colors.len(), 6);
        assert_eq!(conflicts, 0);
        assert!(colors.iter().all(|&c| c < 2));
    }

    #[test]
    fn cost_scales_with_ops() {
        let cpu = CpuBackend::new(1);
        let r = cpu.report(KernelResult::Found(0), 1000);
        assert!((r.cost.device_seconds - 1e-6).abs() < 1e-18);
    }
}

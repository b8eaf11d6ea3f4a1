//! `substrate-direct`: the library entry points called on one thread with
//! no serving stack in between, plus the inner loops' native rates.

use std::time::{Duration, Instant};

use mem::dmm::{DmmParams, DmmSolver};
use mem::maxsat::MaxSatDmmParams;
use mem::qubo::Qubo;
use numerics::ode::{integrate, OdeSystem, Rk4};
use numerics::rng::rng_from_seed;
use osc::coloring::{color_graph, ColoringConfig};
use osc::network::OscillatorGraph;
use quantum::gate::matrices::HADAMARD;
use quantum::state::StateVector;
use quantum::{grover, shor};

use crate::gen::{self, DirectCall, DIRECT_ENTRIES, DIRECT_ROUND};
use crate::metrics::{self, Values};
use crate::oracle;
use crate::{Bounds, Failure};

/// The warm-up: one untimed round, charged to `setup_s`.
pub const WARMUP_CALLS: usize = DIRECT_ROUND;
/// Calls generated per second of `--seconds` (about twice what the seed
/// commit gets through), and the calls of a fixed-count run.
pub const CALLS_PER_SECOND: usize = 60;
pub const FIXED_CALLS: usize = 480;

/// The RNG seed a call runs with depends only on its position, and repeats
/// every [`SEED_CYCLE`] rounds: the instances change with `--seed`, the
/// solvers' luck does not. A Shor call's cost is all luck (the random base,
/// the measured phase), so its calls take one of a few fixed durations and
/// the latency percentiles that fall among them land on a value, not in a
/// gap between two. The base is picked so that each of the six Shor calls
/// of a cycle makes one or two order-finding attempts: none is a lucky
/// classical shortcut, none a long streak of retries.
const CALL_SEED: u64 = 0xd_1ec7_f500;
const SEED_CYCLE: usize = 3;

#[derive(Debug, Clone, Copy)]
pub struct CallRecord {
    pub entry: usize,
    pub latency_ns: u64,
    pub ok: bool,
    /// DMM only: integration steps taken and clauses in the formula.
    pub dmm_steps: u64,
    pub dmm_clauses: u64,
}

/// Makes one call and checks its answer.
fn call(index: usize, what: &DirectCall) -> Result<(bool, u64, u64), Failure> {
    let seed = CALL_SEED + (index % (SEED_CYCLE * DIRECT_ROUND)) as u64;
    let fail = |e: &dyn std::fmt::Display| Failure(format!("call {index} ({what:?}): {e}"));
    Ok(match what {
        DirectCall::Grover { n_qubits, marked } => {
            let run = grover::search(*n_qubits, marked, &mut rng_from_seed(seed))
                .map_err(|e| fail(&e))?;
            (marked.contains(&run.found), 0, 0)
        }
        DirectCall::Shor { n } => {
            let out = shor::factor(*n, &mut rng_from_seed(seed), 50).map_err(|e| fail(&e))?;
            let (p, q) = out.factors;
            (p > 1 && q > 1 && p * q == *n, 0, 0)
        }
        DirectCall::ColorRing { n } => {
            let edges: Vec<(usize, usize)> = (0..*n).map(|v| (v, (v + 1) % n)).collect();
            let config = ColoringConfig {
                n_colors: 3,
                ..ColoringConfig::default()
            };
            let run = color_graph(*n, &edges, &config).map_err(|e| fail(&e))?;
            let ok = run.colors.len() == *n
                && run.colors.iter().all(|&c| c < 3)
                && oracle::coloring_conflicts(&edges, &run.colors) == run.conflicts as u64;
            (ok, 0, 0)
        }
        DirectCall::Dmm { formula } => {
            let out = DmmSolver::new(DmmParams::default())
                .solve(formula, seed)
                .map_err(|e| fail(&e))?;
            let ok = out
                .solution
                .is_some_and(|a| oracle::satisfies(formula, &a.to_bools()));
            (ok, out.steps, formula.len() as u64)
        }
        DirectCall::Qubo { spec } => {
            let mut q = Qubo::new(spec.n_vars).map_err(|e| fail(&e))?;
            for &(i, c) in &spec.linear {
                q.add_linear(i, c).map_err(|e| fail(&e))?;
            }
            for &(i, j, w) in &spec.quadratic {
                q.add_quadratic(i, j, w).map_err(|e| fail(&e))?;
            }
            let (bits, energy) = q
                .minimize_dmm(MaxSatDmmParams::default(), seed)
                .map_err(|e| fail(&e))?;
            let recomputed = oracle::qubo_energy(&spec.linear, &spec.quadratic, &bits);
            (
                (recomputed - energy).abs() <= 1e-9 * recomputed.abs().max(1.0),
                0,
                0,
            )
        }
    })
}

fn run_calls(
    calls: &[DirectCall],
    range: std::ops::Range<usize>,
    seconds: Option<f64>,
) -> Result<(Vec<CallRecord>, f64), Failure> {
    let started = Instant::now();
    let deadline = seconds.map(|s| started + Duration::from_secs_f64(s));
    let mut records = Vec::with_capacity(range.len());
    for i in range {
        let begun = Instant::now();
        if deadline.is_some_and(|d| begun >= d) {
            break;
        }
        let (ok, dmm_steps, dmm_clauses) = call(i, &calls[i])?;
        records.push(CallRecord {
            entry: calls[i].entry(),
            latency_ns: begun.elapsed().as_nanos() as u64,
            ok,
            dmm_steps,
            dmm_clauses,
        });
    }
    Ok((records, started.elapsed().as_secs_f64()))
}

pub struct DirectSetup {
    calls: Vec<DirectCall>,
    pub warmup_failed: u64,
}

/// Instance generation and the warm-up round: what `setup_s` times.
pub fn set_up(timed_calls: usize, seed: u64) -> Result<DirectSetup, Failure> {
    let calls = gen::substrate_direct(WARMUP_CALLS + timed_calls, seed);
    let (warm, _) = run_calls(&calls, 0..WARMUP_CALLS, None)?;
    Ok(DirectSetup {
        calls,
        warmup_failed: warm.iter().filter(|r| !r.ok).count() as u64,
    })
}

pub struct DirectTimed {
    pub records: Vec<CallRecord>,
    pub window_s: f64,
    pub cpu_s: f64,
}

pub fn run_timed(setup: &DirectSetup, bounds: Bounds) -> Result<DirectTimed, Failure> {
    let cpu_before = metrics::cpu_seconds();
    let (records, elapsed_s) = run_calls(
        &setup.calls,
        WARMUP_CALLS..setup.calls.len(),
        bounds.seconds(),
    )?;
    Ok(DirectTimed {
        records,
        // The last call may run past the deadline; it still counts, so the
        // window is the time the calls actually took.
        window_s: elapsed_s,
        cpu_s: metrics::cpu_seconds() - cpu_before,
    })
}

impl DirectTimed {
    pub fn attempted(&self) -> u64 {
        self.records.len() as u64
    }

    pub fn failed(&self) -> u64 {
        self.records.iter().filter(|r| !r.ok).count() as u64
    }

    pub fn end_to_end(&self, values: &mut Values) {
        let verified = self.records.iter().filter(|r| r.ok).count() as f64;
        values.insert("throughput_jobs_s".into(), verified / self.window_s);
        metrics::latency_summary(
            self.records
                .iter()
                .map(|r| r.latency_ns as f64 / 1e6)
                .collect(),
            values,
        );
        values.insert(
            "cpu_ms_per_job".into(),
            self.cpu_s * 1e3 / self.records.len().max(1) as f64,
        );
    }

    /// The `(D)` metrics that come from the timed calls themselves.
    pub fn per_layer(&self, values: &mut Values) {
        let mean_ms = |entry: &str| {
            let e = DIRECT_ENTRIES.iter().position(|&n| n == entry);
            let samples: Vec<f64> = self
                .records
                .iter()
                .filter(|r| Some(r.entry) == e)
                .map(|r| r.latency_ns as f64 / 1e6)
                .collect();
            metrics::mean(&samples)
        };
        values.insert("quantum.grover_ms".into(), mean_ms("grover"));
        values.insert("quantum.shor_ms".into(), mean_ms("shor"));
        values.insert("osc.color_graph_ms".into(), mean_ms("color_graph"));
        values.insert("mem.dmm_solve_ms".into(), mean_ms("dmm"));
        values.insert("mem.qubo_ms".into(), mean_ms("qubo"));
        let dmm: Vec<&CallRecord> = self.records.iter().filter(|r| r.dmm_clauses > 0).collect();
        let steps: u64 = dmm.iter().map(|r| r.dmm_steps).sum();
        let updates: u64 = dmm.iter().map(|r| r.dmm_steps * r.dmm_clauses).sum();
        let host_s: f64 = dmm.iter().map(|r| r.latency_ns as f64 / 1e9).sum();
        values.insert(
            "mem.dmm_steps".into(),
            steps as f64 / dmm.len().max(1) as f64,
        );
        values.insert(
            "mem.dmm_clause_updates_per_s".into(),
            updates as f64 / host_s.max(f64::MIN_POSITIVE),
        );
    }
}

/// Repeats `work` for about `budget` and returns `units_per_call × calls /
/// elapsed seconds`.
fn rate(units_per_call: f64, budget: Duration, mut work: impl FnMut()) -> f64 {
    work();
    let started = Instant::now();
    let mut calls = 0u32;
    while started.elapsed() < budget {
        work();
        calls += 1;
    }
    units_per_call * f64::from(calls) / started.elapsed().as_secs_f64()
}

/// The inner loops on their own, in native units: gate applications on a
/// 16-qubit state, oscillator steps, raw RK4 steps.
pub fn inner_loop_rates(values: &mut Values) -> Result<(), Failure> {
    const QUBITS: usize = 16;
    let budget = Duration::from_millis(250);
    let mut state = StateVector::zero(QUBITS);
    let single = rate(QUBITS as f64, budget, || {
        for q in 0..QUBITS {
            state
                .apply_single(q, &HADAMARD)
                .expect("qubit index in range");
        }
        std::hint::black_box(&state);
    });
    let controlled = rate((QUBITS - 1) as f64, budget, || {
        for q in 1..QUBITS {
            state
                .apply_controlled(q - 1, q, &HADAMARD)
                .expect("qubit indices in range and distinct");
        }
        std::hint::black_box(&state);
    });
    values.insert("quantum.apply_single_mgates_s".into(), single / 1e6);
    values.insert("quantum.apply_controlled_mgates_s".into(), controlled / 1e6);
    values.insert(
        "quantum.amp_updates_per_s".into(),
        single * (1u64 << QUBITS) as f64,
    );

    const RING: usize = 16;
    let config = ColoringConfig::default();
    let edges: Vec<(usize, usize)> = (0..RING).map(|v| (v, (v + 1) % RING)).collect();
    let fabric = OscillatorGraph::new(config.pair, &[config.v_gs; RING], &edges)
        .map_err(|e| Failure(format!("oscillator ring: {e}")))?;
    let sim = config.pair.sim;
    let steps = (sim.duration.0 / sim.dt.0).round();
    values.insert(
        "osc.oscillator_steps_per_s".into(),
        rate(RING as f64 * steps, budget, || {
            std::hint::black_box(fabric.simulate(sim).expect("simulate is infallible"));
        }),
    );
    // The same system through the bare stepper: no trajectory sampling, no
    // readout — what `numerics::ode::Rk4` itself sustains.
    values.insert(
        "numerics.rk4_steps_per_s".into(),
        rate(steps, budget, || {
            let mut y = vec![0.0; fabric.dim()];
            integrate(
                &fabric,
                &mut Rk4::new(sim.dt.0),
                0.0,
                sim.duration.0,
                &mut y,
            );
            std::hint::black_box(y);
        }),
    );
    Ok(())
}

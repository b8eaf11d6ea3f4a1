//! Integration: the Fig. 1 heterogeneous system — specialized backends
//! produce answers consistent with the CPU reference, and the host routes
//! and accounts correctly.

use accel::accelerator::{Accelerator, CpuBackend};
use accel::backends::{standard_pool, MemBackend, OscillatorBackend, QuantumBackend};
use accel::family::MAX_FACTOR_N;
use accel::host::{CorrectionTable, DispatchPolicy, HostRuntime, Planner};
use accel::kernel::{InvalidKernel, Kernel, KernelResult};
use accel::AccelError;
use mem::generators::planted_3sat;
use runtime::{JobOptions, JobOutcome, Runtime, RuntimeConfig};
use std::time::{Duration, Instant};

fn full_host() -> HostRuntime {
    let mut host = HostRuntime::new(DispatchPolicy::PreferSpecialized);
    host.register(Box::new(QuantumBackend::new(1)));
    host.register(Box::new(OscillatorBackend::new(4).expect("calibrates")));
    host.register(Box::new(MemBackend::new(2)));
    host.register(Box::new(CpuBackend::new(3)));
    host
}

#[test]
fn quantum_and_cpu_agree_on_factoring() {
    let mut host = full_host();
    let quantum = host.dispatch(&Kernel::Factor { n: 21 }).unwrap();
    let mut cpu = CpuBackend::new(9);
    let classical = cpu.execute(&Kernel::Factor { n: 21 }).unwrap();
    let product = |r: &KernelResult| match r {
        KernelResult::Factors(p, q) => p * q,
        other => panic!("unexpected {other:?}"),
    };
    assert_eq!(product(&quantum.result), 21);
    assert_eq!(product(&classical.result), 21);
}

#[test]
fn mem_and_cpu_agree_on_satisfiability() {
    let inst = planted_3sat(20, 4.0, 4).unwrap();
    let kernel = Kernel::SolveSat {
        formula: inst.formula.clone(),
    };
    let mut host = full_host();
    let dmm_run = host.dispatch(&kernel).unwrap();
    let mut cpu = CpuBackend::new(5);
    let cpu_run = cpu.execute(&kernel).unwrap();
    for (name, run) in [("dmm", dmm_run), ("cpu", cpu_run)] {
        match run.result {
            KernelResult::SatSolution(Some(bits)) => {
                let a = mem::assignment::Assignment::from_bools(&bits);
                assert!(inst.formula.is_satisfied(&a), "{name} invalid");
            }
            other => panic!("{name} unexpected {other:?}"),
        }
    }
}

#[test]
fn oscillator_distance_orders_like_cpu_distance() {
    let mut host = full_host();
    let pairs = [(0.5, 0.52), (0.5, 0.6), (0.2, 0.8)];
    let mut osc_values = Vec::new();
    let mut cpu_values = Vec::new();
    let mut cpu = CpuBackend::new(7);
    for &(x, y) in &pairs {
        let k = Kernel::Compare { x, y };
        match host.dispatch(&k).unwrap().result {
            KernelResult::Distance(d) => osc_values.push(d),
            other => panic!("unexpected {other:?}"),
        }
        match cpu.execute(&k).unwrap().result {
            KernelResult::Distance(d) => cpu_values.push(d),
            other => panic!("unexpected {other:?}"),
        }
    }
    // The analog measure must preserve the classical ordering.
    assert!(osc_values[0] <= osc_values[1] + 1e-12);
    assert!(osc_values[1] <= osc_values[2] + 1e-12);
    assert!(cpu_values.windows(2).all(|w| w[0] <= w[1]));
    assert_eq!(host.stats()["oscillator"].kernels, 3);
}

#[test]
fn workload_routes_every_class_to_its_specialist() {
    let inst = planted_3sat(15, 3.8, 6).unwrap();
    let workload = vec![
        Kernel::Factor { n: 15 },
        Kernel::SolveSat {
            formula: inst.formula,
        },
        Kernel::Compare { x: 0.3, y: 0.4 },
        Kernel::DnaSimilarity {
            a: "ACGTACGTACGT".into(),
            b: "ACGTACGAACGT".into(),
            k: 2,
        },
    ];
    let mut host = full_host();
    host.run_workload(&workload).unwrap();
    let stats = host.stats();
    assert_eq!(stats["quantum"].kernels, 2);
    assert_eq!(stats["memcomputing"].kernels, 1);
    assert_eq!(stats["oscillator"].kernels, 1);
    assert_eq!(stats["cpu"].kernels, 0);
    assert!(host.total_device_seconds() > 0.0);
}

/// A marked item listed twice is still one marked item. The oracle used to
/// flip its sign once per list entry — twice is not at all — so the raw
/// kernel (which admission would have deduplicated, but a `DeadlineAware`
/// job or a library caller never shows to admission) came back with an
/// unmarked item: on every seed for `[37, 37]`, on about half of them for
/// `[37, 12, 37]`.
#[test]
fn quantum_search_counts_a_repeated_marked_item_once() {
    for marked in [vec![37usize, 37], vec![37, 12, 37]] {
        let kernel = Kernel::Search {
            n_qubits: 6,
            marked: marked.clone(),
        };
        kernel.validate().expect("repeats are valid input");
        for seed in 0..20 {
            let mut quantum = QuantumBackend::new(seed);
            match quantum.execute(&kernel).unwrap().result {
                KernelResult::Found(item) => {
                    assert!(marked.contains(&item), "seed {seed}: found {item}");
                }
                other => panic!("unexpected {other:?}"),
            }
        }
    }
}

#[test]
fn cpu_only_policy_still_answers_everything() {
    let inst = planted_3sat(12, 3.5, 8).unwrap();
    let workload = vec![
        Kernel::Factor { n: 15 },
        Kernel::SolveSat {
            formula: inst.formula,
        },
        Kernel::Compare { x: 0.3, y: 0.4 },
    ];
    let mut host = HostRuntime::new(DispatchPolicy::CpuOnly);
    host.register(Box::new(QuantumBackend::new(1)));
    host.register(Box::new(CpuBackend::new(2)));
    let runs = host.run_workload(&workload).unwrap();
    assert_eq!(runs.len(), 3);
    assert_eq!(host.stats()["cpu"].kernels, 3);
    assert_eq!(host.stats()["quantum"].kernels, 0);
}

/// The largest prime below the `Factor` serving cap: 2⁴⁰ − 87.
const LARGEST_PRIME_BELOW_CAP: u64 = MAX_FACTOR_N - 87;

/// The wall-clock bound on each boundary execution. The slowest row, the
/// CPU's trial division of the largest prime below the cap, makes about
/// 5 × 10⁵ divisions.
const EXECUTION_BOUND: Duration = Duration::from_secs(5);

#[test]
fn factor_boundary_rows_are_refused_or_answered_within_a_bound() {
    let too_large = |n: u64| InvalidKernel::FamilyTooLarge {
        family: "factor",
        field: "n",
        len: n as usize,
        max: MAX_FACTOR_N as usize,
    };
    let rows = [
        (3, Err(InvalidKernel::FactorTooSmall { n: 3 })),
        (4, Ok(())),
        (4_095, Ok(())),
        (4_096, Ok(())),
        (4_097, Ok(())),
        (LARGEST_PRIME_BELOW_CAP, Ok(())),
        (MAX_FACTOR_N, Ok(())),
        (MAX_FACTOR_N + 1, Err(too_large(MAX_FACTOR_N + 1))),
        (u64::MAX, Err(too_large(u64::MAX))),
    ];
    let planner = Planner::frozen(CorrectionTable::new());
    for (n, verdict) in rows {
        let kernel = Kernel::Factor { n };
        assert_eq!(kernel.validate(), verdict, "factor({n})");
        if verdict.is_err() {
            continue;
        }
        let mut pool = standard_pool(11).unwrap();
        let quantum_runs = n <= quantum::shor::MAX_N;
        assert_eq!(pool[0].name(), "quantum");
        assert_eq!(pool[0].estimate(&kernel).is_some(), quantum_runs, "{n}");
        for policy in [
            DispatchPolicy::PreferSpecialized,
            DispatchPolicy::MinPredictedLatency,
            DispatchPolicy::MinPredictedEnergy,
            DispatchPolicy::DeadlineAware,
        ] {
            let plan = planner.plan(&pool, &kernel, policy, None).unwrap();
            let planned_quantum = plan.ranked.iter().any(|&(i, _)| i == 0);
            assert_eq!(planned_quantum, quantum_runs, "factor({n}) {policy:?}");
        }
        for backend in &mut pool {
            if backend.estimate(&kernel).is_none() {
                continue;
            }
            let name = backend.name().to_string();
            backend.reseed(n);
            let started = Instant::now();
            let run = backend.execute(&kernel);
            let elapsed = started.elapsed();
            assert!(elapsed < EXECUTION_BOUND, "{name} factor({n}): {elapsed:?}");
            match run {
                Ok(execution) => match execution.result {
                    KernelResult::Factors(p, q) => {
                        assert!(p > 1 && q > 1, "{name} factor({n}): ({p}, {q})");
                        assert_eq!(p.checked_mul(q), Some(n), "{name} factor({n})");
                    }
                    other => panic!("{name} factor({n}): {other:?}"),
                },
                Err(error) => {
                    assert_eq!(n, LARGEST_PRIME_BELOW_CAP, "{name} factor({n}): {error}");
                    assert!(matches!(error, AccelError::Backend { .. }), "{error}");
                }
            }
        }
    }
}

#[test]
fn a_factor_past_the_quantum_range_completes_on_the_cpu() {
    let config = RuntimeConfig {
        workers: 1,
        queue_capacity: 8,
        policy: DispatchPolicy::PreferSpecialized,
        seed: 3,
        ..RuntimeConfig::default()
    };
    let rt = Runtime::start(config).unwrap();
    for seed in [1, 2, 3, 42, 2019] {
        let handle = rt
            .submit_with(Kernel::Factor { n: 4_097 }, JobOptions::with_seed(seed))
            .unwrap();
        match handle.wait() {
            JobOutcome::Completed {
                backend, execution, ..
            } => {
                assert_eq!(backend, "cpu", "seed {seed}");
                assert_eq!(execution.result, KernelResult::Factors(17, 241));
            }
            other => panic!("seed {seed}: {other:?}"),
        }
    }
    let stats = rt.shutdown();
    assert_eq!(stats.failed, 0);
}

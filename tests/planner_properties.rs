//! Property tests for the cost-model planner, driven by the workspace's
//! seeded RNG so every run checks the same cases.
//!
//! Invariants under test:
//!
//! * every backend estimate is finite and strictly positive;
//! * per backend, estimates are monotone in the kernel's problem size,
//!   within the sizes the backend runs;
//! * `DeadlineAware` planning never ranks a backend whose *corrected*
//!   estimate exceeds the deadline budget — under arbitrary correction
//!   factors — and fails with `DeadlineUnmeetable` instead of silently
//!   picking a too-slow device.

use accel::accelerator::{Accelerator, CpuBackend};
use accel::backends::{standard_pool, MemBackend, QuantumBackend};
use accel::host::{CorrectionTable, DispatchPolicy, HostRuntime};
use accel::kernel::Kernel;
use accel::AccelError;
use mem::generators::planted_3sat;
use numerics::rng::{rng_from_seed, Rng, StdRng};

const ROUNDS: usize = 200;

fn random_kernel(rng: &mut StdRng) -> Kernel {
    match rng.gen_range(0..5u32) {
        0 => Kernel::Factor {
            n: rng.gen_range(4..100_000u64),
        },
        1 => {
            let n_qubits = rng.gen_range(2..14usize);
            let marked = (0..rng.gen_range(1..4usize))
                .map(|_| rng.gen_range(0..(1usize << n_qubits)))
                .collect();
            Kernel::Search { n_qubits, marked }
        }
        2 => {
            let len_a = rng.gen_range(4..40usize);
            let len_b = rng.gen_range(4..40usize);
            let bases = ['A', 'C', 'G', 'T'];
            let seq = |rng: &mut StdRng, len: usize| -> String {
                (0..len).map(|_| bases[rng.gen_range(0..4usize)]).collect()
            };
            Kernel::DnaSimilarity {
                a: seq(rng, len_a),
                b: seq(rng, len_b),
                k: rng.gen_range(1..4usize),
            }
        }
        3 => {
            let sat = planted_3sat(rng.gen_range(6..16usize), 3.5, rng.gen::<u64>())
                .expect("generator parameters are valid");
            Kernel::SolveSat {
                formula: sat.formula,
            }
        }
        _ => Kernel::Compare {
            x: rng.gen_range(0.0..1.0),
            y: rng.gen_range(0.0..1.0),
        },
    }
}

#[test]
fn estimates_are_finite_and_positive() {
    let mut rng = rng_from_seed(0x11AA_0001);
    let pool = standard_pool(3).expect("pool builds");
    for round in 0..ROUNDS {
        let kernel = random_kernel(&mut rng);
        for backend in &pool {
            if let Some(e) = backend.estimate(&kernel) {
                assert!(
                    e.device_seconds.is_finite() && e.device_seconds > 0.0,
                    "round {round}: {} predicts device_seconds {} for {}",
                    backend.name(),
                    e.device_seconds,
                    kernel.describe()
                );
                assert!(
                    e.energy_joules.is_finite() && e.energy_joules > 0.0,
                    "round {round}: {} predicts energy_joules {} for {}",
                    backend.name(),
                    e.energy_joules,
                    kernel.describe()
                );
            }
        }
    }
}

/// Asserts `device_seconds` does not decrease along a sequence of
/// kernels ordered by problem size.
fn assert_monotone(backend: &dyn Accelerator, kernels: &[Kernel], label: &str) {
    let mut last = 0.0f64;
    for kernel in kernels {
        let e = backend
            .estimate(kernel)
            .unwrap_or_else(|| panic!("{label}: no estimate for {}", kernel.describe()));
        assert!(
            e.device_seconds >= last,
            "{label}: estimate shrank from {last:.3e} to {:.3e} at {}",
            e.device_seconds,
            kernel.describe()
        );
        last = e.device_seconds;
    }
}

#[test]
fn estimates_are_monotone_in_problem_size() {
    let mut rng = rng_from_seed(0x11AA_0002);
    let cpu = CpuBackend::new(1);
    let quantum = QuantumBackend::new(2);
    let mem = MemBackend::new(3);

    // Factoring: more bits, more work — on both the classical trial
    // divider and the modelled Shor circuit, within the moduli order
    // finding simulates. Past them the quantum backend estimates nothing.
    let factor = |n: u64| Kernel::Factor { n };
    let factors: Vec<Kernel> = [15u64, 77, 1_763, 4_087, 25_117, 1_299_709]
        .map(factor)
        .to_vec();
    assert_monotone(&cpu, &factors, "cpu factor");
    let (in_range, beyond) = factors.split_at(4);
    assert_monotone(&quantum, in_range, "quantum factor");
    for kernel in beyond.iter().chain(&[factor(quantum::shor::MAX_N + 1)]) {
        assert!(quantum.estimate(kernel).is_none(), "{}", kernel.describe());
    }

    // Search: wider registers, deeper Grover circuits.
    let searches: Vec<Kernel> = (2..12usize)
        .map(|n_qubits| Kernel::Search {
            n_qubits,
            marked: vec![1],
        })
        .collect();
    assert_monotone(&quantum, &searches, "quantum search");
    assert_monotone(&cpu, &searches, "cpu search");

    // DNA similarity: longer sequences cost the CPU more.
    let bases = ['A', 'C', 'G', 'T'];
    let dnas: Vec<Kernel> = (1..8usize)
        .map(|scale| {
            let len = scale * 10;
            let seq: String = (0..len).map(|_| bases[rng.gen_range(0..4usize)]).collect();
            Kernel::DnaSimilarity {
                a: seq.clone(),
                b: seq,
                k: 2,
            }
        })
        .collect();
    assert_monotone(&cpu, &dnas, "cpu dna");

    // SAT: more variables (at fixed clause ratio) cost the memcomputing
    // solver more predicted integration steps.
    let sats: Vec<Kernel> = (0..5usize)
        .map(|scale| {
            let sat = planted_3sat(8 + scale * 6, 3.5, 9).expect("valid generator");
            Kernel::SolveSat {
                formula: sat.formula,
            }
        })
        .collect();
    assert_monotone(&mem, &sats, "mem sat");
    assert_monotone(&cpu, &sats, "cpu sat");
}

/// A host over the standard pool with frozen correction factors.
fn host_with(corrections: CorrectionTable) -> HostRuntime {
    let mut host = HostRuntime::with_corrections(DispatchPolicy::PreferSpecialized, corrections);
    for backend in standard_pool(7).expect("pool builds") {
        host.register(backend);
    }
    host
}

#[test]
fn deadline_aware_never_plans_past_the_budget() {
    let mut rng = rng_from_seed(0x11AA_0003);
    let backends = ["quantum", "oscillator", "memcomputing", "cpu"];
    for round in 0..ROUNDS {
        // Random correction factors spanning six orders of magnitude:
        // the invariant must hold however miscalibrated the models are.
        let mut corrections = CorrectionTable::new();
        for name in backends {
            corrections.set(name, 10f64.powf(rng.gen_range(-3.0..3.0)));
        }
        let host = host_with(corrections);
        let kernel = random_kernel(&mut rng);
        // Budgets from 1 femtosecond (unmeetable) to 10 kiloseconds
        // (everything fits).
        let budget = 10f64.powf(rng.gen_range(-15.0..4.0));
        match host.plan(&kernel, Some(DispatchPolicy::DeadlineAware), Some(budget)) {
            Ok(plan) => {
                assert!(!plan.ranked.is_empty(), "round {round}: empty plan");
                for (i, e) in &plan.ranked {
                    assert!(
                        e.device_seconds <= budget,
                        "round {round}: backend {i} predicted {:.3e}s over budget {budget:.3e}s \
                         for {}",
                        e.device_seconds,
                        kernel.describe()
                    );
                }
            }
            Err(AccelError::DeadlineUnmeetable {
                deadline_seconds,
                best_seconds,
                ..
            }) => {
                assert_eq!(deadline_seconds, budget, "round {round}");
                assert!(
                    best_seconds > budget,
                    "round {round}: rejected although the best estimate {best_seconds:.3e}s \
                     fits {budget:.3e}s"
                );
            }
            Err(other) => panic!("round {round}: unexpected {other}"),
        }
    }
}

#[test]
fn deadline_aware_with_no_deadline_matches_min_latency() {
    let mut rng = rng_from_seed(0x11AA_0004);
    let host = host_with(CorrectionTable::new());
    for round in 0..64 {
        let kernel = random_kernel(&mut rng);
        let unconstrained = host
            .plan(&kernel, Some(DispatchPolicy::DeadlineAware), None)
            .expect("plannable");
        let min_latency = host
            .plan(&kernel, Some(DispatchPolicy::MinPredictedLatency), None)
            .expect("plannable");
        assert_eq!(
            unconstrained.ranked,
            min_latency.ranked,
            "round {round}: without a deadline, DeadlineAware must rank like \
             MinPredictedLatency for {}",
            kernel.describe()
        );
    }
}

//! Integration: the Fig. 1 heterogeneous system — specialized backends
//! produce answers consistent with the CPU reference, and the host routes
//! and accounts correctly.

use accel::accelerator::{Accelerator, CpuBackend};
use accel::backends::{MemBackend, OscillatorBackend, QuantumBackend};
use accel::host::{DispatchPolicy, HostRuntime};
use accel::kernel::{Kernel, KernelResult};
use mem::generators::planted_3sat;

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

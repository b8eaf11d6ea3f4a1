//! E12 — Fig. 1: a heterogeneous host dispatching a mixed workload to
//! specialized accelerators vs the CPU-only configuration.

use crate::banner;
use accel::accelerator::CpuBackend;
use accel::backends::{MemBackend, OscillatorBackend, QuantumBackend};
use accel::host::{DispatchPolicy, HostRuntime};
use accel::kernel::Kernel;
use mem::generators::planted_3sat;

fn workload() -> Vec<Kernel> {
    let mut kernels = vec![
        Kernel::Factor { n: 15 },
        Kernel::Factor { n: 21 },
        Kernel::Search {
            n_qubits: 7,
            marked: vec![100],
        },
        Kernel::DnaSimilarity {
            a: "ACGTACGTACGTACGTACGT".into(),
            b: "ACGAACGTACCTACGTTCGT".into(),
            k: 2,
        },
    ];
    for seed in 0..3u64 {
        let inst = planted_3sat(20, 4.0, 300 + seed).expect("instance");
        kernels.push(Kernel::SolveSat {
            formula: inst.formula,
        });
    }
    for i in 0..6 {
        kernels.push(Kernel::Compare {
            x: 0.3,
            y: 0.3 + i as f64 * 0.05,
        });
    }
    kernels
}

fn build_host(policy: DispatchPolicy) -> HostRuntime {
    let mut host = HostRuntime::new(policy);
    host.register(Box::new(QuantumBackend::new(1)));
    host.register(Box::new(OscillatorBackend::new(4).expect("calibrates")));
    host.register(Box::new(MemBackend::new(2)));
    host.register(Box::new(CpuBackend::new(3)));
    host
}

pub fn run() {
    banner("E12 hetero_dispatch", "Fig. 1 (heterogeneous accelerators)");
    let kernels = workload();
    println!("workload: {} kernels\n", kernels.len());
    for policy in [DispatchPolicy::PreferSpecialized, DispatchPolicy::CpuOnly] {
        let mut host = build_host(policy);
        host.run_workload(&kernels).expect("workload");
        println!("policy {policy:?}:");
        for (name, stats) in host.stats() {
            println!(
                "  {:<14} kernels={:<3} device_time={:>10.3e} s ops={}",
                name, stats.kernels, stats.device_seconds, stats.operations
            );
        }
        println!(
            "  total modelled device time: {:.3e} s\n",
            host.total_device_seconds()
        );
    }
    println!("expected shape: under PreferSpecialized every kernel class lands on");
    println!("its specialist (CPU idle); under CpuOnly the CPU absorbs everything");
}

//! A heterogeneous host dispatching a mixed workload to quantum,
//! oscillator, and memcomputing accelerators (paper Fig. 1), plus the
//! per-layer latency breakdown of a quantum job (paper Fig. 2).
//!
//! Run with: `cargo run --release --example hetero_pipeline`

use accel::accelerator::CpuBackend;
use accel::backends::{MemBackend, OscillatorBackend, QuantumBackend};
use accel::host::{DispatchPolicy, HostRuntime};
use accel::kernel::Kernel;
use accel::stack;
use mem::generators::planted_3sat;
use numerics::rng::rng_from_seed;
use quantum::isa::assemble;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Build the Fig. 1 system: specialized accelerators + CPU fallback.
    let mut host = HostRuntime::new(DispatchPolicy::PreferSpecialized);
    host.register(Box::new(QuantumBackend::new(1)));
    host.register(Box::new(OscillatorBackend::new(4)?));
    host.register(Box::new(MemBackend::new(2)));
    host.register(Box::new(CpuBackend::new(3)));
    println!("registered backends: {:?}\n", host.backend_names());

    // A mixed workload touching every paradigm.
    let sat = planted_3sat(25, 4.0, 5)?;
    let workload = vec![
        Kernel::Factor { n: 21 },
        Kernel::Search {
            n_qubits: 7,
            marked: vec![100],
        },
        Kernel::DnaSimilarity {
            a: "ACGTACGTACGTACGT".into(),
            b: "ACGAACGTACCTACGT".into(),
            k: 2,
        },
        Kernel::SolveSat {
            formula: sat.formula,
        },
        Kernel::Compare { x: 0.30, y: 0.34 },
        Kernel::Compare { x: 0.10, y: 0.90 },
    ];
    for kernel in &workload {
        let run = host.dispatch(kernel)?;
        println!(
            "{:<44} -> {:?}  ({:.2e} s device time)",
            kernel.describe(),
            run.result,
            run.cost.device_seconds
        );
    }

    println!("\nper-backend utilization:");
    for (name, stats) in host.stats() {
        println!(
            "  {:<14} kernels={:<3} device_time={:.3e} s ops={}",
            name, stats.kernels, stats.device_seconds, stats.operations
        );
    }

    // Fig. 2: where does a quantum job's latency go?
    println!("\nFig. 2 stack breakdown for a GHZ job:");
    let program = assemble("qubits 3\nh q0\ncnot q0, q1\ncnot q1, q2\nmeasure_all\n")?;
    let mut rng = rng_from_seed(4);
    let report = stack::run(&program, &mut rng)?;
    print!("{report}");
    println!(
        "chip fraction: {:.1}% — the classical stack dominates small jobs",
        report.chip_fraction() * 100.0
    );
    Ok(())
}

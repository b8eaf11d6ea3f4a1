//! E11 — Fig. 2: per-layer latency of quantum jobs travelling the full
//! accelerator stack (application → … → chip), for growing circuit sizes.

use crate::banner;
use accel::stack::{self, Layer};
use numerics::rng::rng_from_seed;
use quantum::isa::{assemble, Program};

fn ghz_program(n_qubits: usize, repeats: usize) -> Program {
    let mut src = format!("qubits {n_qubits}\n");
    for _ in 0..repeats {
        src.push_str("h q0\n");
        for q in 1..n_qubits {
            src.push_str(&format!("cnot q{}, q{}\n", q - 1, q));
        }
    }
    src.push_str("measure_all\n");
    assemble(&src).expect("assembles")
}

pub fn run() {
    banner(
        "E11 stack_latency",
        "Fig. 2 (quantum accelerator stack layers)",
    );
    let mut rng = rng_from_seed(3);
    const SHOTS: usize = 100;
    println!("(each job compiled once, executed {SHOTS} shots)\n");
    println!(
        "{:>16} | {:>12} | {:>12} | {:>12}",
        "layer (ns)", "bell (3g)", "ghz5 x4", "ghz8 x16"
    );
    println!("{}", "-".repeat(62));
    let programs = [ghz_program(2, 1), ghz_program(5, 4), ghz_program(8, 16)];
    let reports: Vec<_> = programs
        .iter()
        .map(|p| stack::run_shots(p, SHOTS, &mut rng).expect("stack run"))
        .collect();
    for layer in Layer::ALL {
        print!("{:>16} |", layer.to_string());
        for r in &reports {
            print!(" {:>12.1} |", r.layer_ns(layer));
        }
        println!();
    }
    print!("{:>16} |", "total");
    for r in &reports {
        print!(" {:>12.1} |", r.total_ns());
    }
    println!();
    print!("{:>16} |", "chip fraction");
    for r in &reports {
        print!(" {:>11.1}% |", r.chip_fraction() * 100.0);
    }
    println!();
    // Shot-count sweep: amortization of the classical stack.
    println!("\nchip fraction vs shot count (ghz5 x4 job):");
    let program = ghz_program(5, 4);
    print!(" ");
    for shots in [1usize, 10, 100, 1000] {
        let r = stack::run_shots(&program, shots, &mut rng).expect("stack run");
        print!("  {shots} shot(s): {:.1}%", r.chip_fraction() * 100.0);
    }
    println!();
    println!("\nexpected shape: at 1 shot the classical stack dominates; repeated");
    println!("shots amortize compilation until the chip dominates");
}

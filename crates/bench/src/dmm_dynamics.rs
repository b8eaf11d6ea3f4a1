//! E6 — §IV dynamical-systems claims (refs. [51, 52, 53]): DMM
//! trajectories are bounded (point dissipativity) and, when a solution
//! exists, show no periodic recurrence in their digital projection.

use crate::banner;
use mem::analysis::{boundedness, cluster_flip_stats, recurrence_check};
use mem::dmm::{DmmParams, DmmSolver};
use mem::generators::planted_3sat;

pub fn run() {
    banner(
        "E6 dmm_dynamics",
        "§IV boundedness + no-periodic-orbits (refs. 51-53)",
    );
    let params = DmmParams {
        check_every: 10,
        max_steps: 500_000,
        ..DmmParams::default()
    };
    let solver = DmmSolver::new(params);
    println!(
        "{:>5} | {:>7} | {:>9} | {:>8} | {:>8} | {:>9} | {:>10}",
        "N", "solved", "max|v|", "bounded", "cycles?", "max flip", "collective"
    );
    println!("{}", "-".repeat(72));
    for (i, n) in [30usize, 50, 70].iter().enumerate() {
        let inst = planted_3sat(*n, 4.25, 7_000 + i as u64).expect("instance");
        let out = solver.solve(&inst.formula, i as u64).expect("run");
        let bounds = boundedness(&out);
        let rec = recurrence_check(&out.checkpoints);
        let flips = cluster_flip_stats(&out.checkpoints);
        println!(
            "{:>5} | {:>7} | {:>9.4} | {:>8} | {:>8} | {:>8} | {:>9.2}",
            n,
            out.solution.is_some(),
            bounds.max_abs_v,
            bounds.bounded,
            rec.has_cycle(),
            flips.max_size,
            flips.collective_fraction
        );
    }
    println!("\nexpected shape: bounded = true, cycles = false on solvable");
    println!("instances; collective (multi-variable) flips present — the DLRO");
    println!("signature of instantonic transients (ref. 58)");
}

//! E4 — §IV scaling claim: DMM cost grows slower than classical solvers on
//! hard random 3-SAT (refs. [47, 54]).
//!
//! Median cost over seeded planted instances at clause ratio 4.25, with a
//! power-law fit `cost ∝ N^k` per solver. The DMM's fitted exponent should
//! be visibly smaller than WalkSAT's and DPLL's.

use crate::banner;
use mem::dmm::{DmmParams, DmmSolver};
use mem::dpll::Dpll;
use mem::generators::planted_3sat;
use mem::walksat::{WalkSat, WalkSatParams};
use numerics::fit::fit_scaling_law;
use numerics::stats::median;

const SIZES: [usize; 5] = [20, 40, 60, 90, 120];
const TRIALS: u64 = 7;
const RATIO: f64 = 4.25;

pub fn run() {
    banner(
        "E4 sat_scaling",
        "§IV DMM-vs-solvers scaling (refs. 47, 54)",
    );
    let dmm = DmmSolver::new(DmmParams {
        max_steps: 2_000_000,
        ..DmmParams::default()
    });
    let walksat = WalkSat::new(WalkSatParams {
        max_flips: 5_000_000,
        max_tries: 3,
    });

    println!(
        "{:>5} | {:>14} | {:>14} | {:>16}",
        "N", "DMM steps", "WalkSAT flips", "DPLL dec+prop"
    );
    println!("{}", "-".repeat(60));

    let mut dmm_medians = Vec::new();
    let mut ws_medians = Vec::new();
    let mut dpll_medians = Vec::new();
    for &n in &SIZES {
        let mut dmm_cost = Vec::new();
        let mut ws_cost = Vec::new();
        let mut dpll_cost = Vec::new();
        for seed in 0..TRIALS {
            let inst = planted_3sat(n, RATIO, 5_000 + seed).expect("instance");
            let d = dmm.solve(&inst.formula, seed).expect("dmm");
            assert!(d.solution.is_some(), "dmm timeout at N={n}");
            dmm_cost.push(d.steps as f64);
            let w = walksat.solve(&inst.formula, seed);
            assert!(w.solution.is_some(), "walksat timeout at N={n}");
            ws_cost.push(w.flips.max(1) as f64);
            let p = Dpll::new(500_000_000).solve(&inst.formula);
            assert!(p.solution.is_some(), "dpll timeout at N={n}");
            dpll_cost.push((p.decisions + p.propagations).max(1) as f64);
        }
        let (dm, wm, pm) = (
            median(&dmm_cost).expect("median"),
            median(&ws_cost).expect("median"),
            median(&dpll_cost).expect("median"),
        );
        println!("{n:>5} | {dm:>14.0} | {wm:>14.0} | {pm:>16.0}");
        dmm_medians.push(dm);
        ws_medians.push(wm);
        dpll_medians.push(pm);
    }

    let ns: Vec<f64> = SIZES.iter().map(|&n| n as f64).collect();
    println!("\npower-law fits  cost ~ N^k :");
    for (name, series) in [
        ("DMM", &dmm_medians),
        ("WalkSAT", &ws_medians),
        ("DPLL", &dpll_medians),
    ] {
        match fit_scaling_law(&ns, series) {
            Ok((k, _, r2)) => println!("  {name:<8} k = {k:.2}  (r2 = {r2:.3})"),
            Err(e) => println!("  {name:<8} fit failed: {e}"),
        }
    }
    println!("\nexpected shape: DMM exponent below the classical baselines'");
}

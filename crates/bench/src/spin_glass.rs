//! E8 — §IV frustrated-loop spin glass (ref. \[56\]): the memcomputing route
//! reaches planted ground states, and its transients flip clusters of spins
//! (dynamical long-range order), unlike single-spin-flip annealing.

use crate::banner;
use mem::analysis::cluster_flip_stats;
use mem::assignment::Assignment;
use mem::dmm::{DmmParams, DmmSolver};
use mem::generators::frustrated_loop_ising;
use mem::ising::{AnnealSchedule, SimulatedAnnealing};
use mem::maxsat::MaxSatDmmParams;
use mem::qubo::Qubo;

fn ising_to_qubo(model: &mem::ising::IsingModel) -> Qubo {
    let mut qubo = Qubo::new(model.n_spins()).expect("qubo");
    for &(a, b, j) in model.couplings() {
        // E = −J·s_a·s_b with s = 2x − 1.
        qubo.add_quadratic(a, b, -4.0 * j).expect("quad");
        qubo.add_linear(a, 2.0 * j).expect("lin");
        qubo.add_linear(b, 2.0 * j).expect("lin");
    }
    qubo
}

pub fn run() {
    banner("E8 spin_glass", "§IV frustrated loops + DLRO (ref. 56)");
    println!(
        "{:>6} {:>6} | {:>10} | {:>9} {:>9} | {:>9} {:>9}",
        "side", "loops", "E_ground", "DMM E", "hit", "SA E", "hit"
    );
    println!("{}", "-".repeat(72));
    let sa = SimulatedAnnealing::new(AnnealSchedule::default());
    let mut dmm_hits = 0;
    let mut sa_hits = 0;
    let cases = [(4usize, 3usize), (4, 5), (5, 5), (5, 8), (6, 8)];
    for (i, &(side, loops)) in cases.iter().enumerate() {
        let inst = frustrated_loop_ising(side, loops, 40 + i as u64).expect("instance");
        let qubo = ising_to_qubo(&inst.model);
        // Best of 3 single 100 000-step trajectories, like any stochastic
        // optimizer is run.
        let mut params = MaxSatDmmParams::default();
        params.dynamics.max_steps = 100_000;
        params.restarts = 1;
        let dmm_energy = (0..3u64)
            .map(|seed| {
                let (bits, _) = qubo
                    .minimize_dmm(params, 10 * i as u64 + seed)
                    .expect("dmm");
                inst.model.energy(&Assignment::from_bools(&bits))
            })
            .fold(f64::INFINITY, f64::min);
        let sa_result = sa.run(&inst.model, i as u64);
        let dmm_hit = (dmm_energy - inst.ground_energy).abs() < 1e-9;
        let sa_hit = (sa_result.best_energy - inst.ground_energy).abs() < 1e-9;
        dmm_hits += i32::from(dmm_hit);
        sa_hits += i32::from(sa_hit);
        println!(
            "{:>6} {:>6} | {:>10.1} | {:>9.1} {:>9} | {:>9.1} {:>9}",
            side, loops, inst.ground_energy, dmm_energy, dmm_hit, sa_result.best_energy, sa_hit
        );
    }
    println!(
        "\nground-state hits: DMM {dmm_hits}/{} vs SA {sa_hits}/{}",
        5, 5
    );

    // DLRO: cluster-flip statistics of the DMM trajectory on a planted SAT
    // projection of the glass vs single-spin SA.
    println!("\ncluster-flip (DLRO) statistics on a hard planted 3-SAT transient:");
    let inst = mem::generators::planted_3sat(60, 4.25, 99).expect("instance");
    let params = DmmParams {
        check_every: 10,
        ..DmmParams::default()
    };
    let out = DmmSolver::new(params)
        .solve(&inst.formula, 3)
        .expect("dmm run");
    let stats = cluster_flip_stats(&out.checkpoints);
    println!(
        "  DMM: events {} | mean flip size {:.2} | max {} | collective fraction {:.2}",
        stats.events, stats.mean_size, stats.max_size, stats.collective_fraction
    );
    println!("  simulated annealing flips exactly 1 spin per accepted move by construction");
}

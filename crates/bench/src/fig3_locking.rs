//! E1 — Fig. 3: frequency locking of an RC-coupled VO₂ oscillator pair.
//!
//! Sweeps the input detuning `ΔV_gs`, printing each oscillator's frequency
//! uncoupled and coupled; the locking plateau (coupled frequencies equal
//! over a finite detuning range) is the Fig. 3 phenomenon.

use crate::banner;
use device::units::Seconds;
use osc::locking::LockingSweep;
use osc::norms::NormRegime;
use osc::pair::PairConfig;

fn config() -> PairConfig {
    let mut cfg = NormRegime::Shallow.config();
    cfg.sim.duration = Seconds(3e-6);
    cfg
}

pub fn run() {
    banner("E1 fig3_locking", "Fig. 3 (frequency locking)");
    let sweep = LockingSweep::new(config());
    let curve = sweep.run(0.62, 0.05, 15).expect("sweep");
    println!(
        "{:>9} | {:>10} {:>10} | {:>10} {:>10} | {:>7}",
        "dVgs (V)", "f1 unc", "f2 unc", "f1 coup", "f2 coup", "locked"
    );
    println!("{}", "-".repeat(70));
    for p in curve.points() {
        println!(
            "{:>9.4} | {:>9.3}M {:>9.3}M | {:>9.3}M {:>9.3}M | {:>7}",
            p.delta_vgs,
            p.f1_uncoupled / 1e6,
            p.f2_uncoupled / 1e6,
            p.f1_coupled / 1e6,
            p.f2_coupled / 1e6,
            p.is_locked(0.01)
        );
    }
    match curve.locking_range(0.01) {
        Some((lo, hi)) => println!(
            "\nlocking range: [{lo:+.4}, {hi:+.4}] V (width {:.4} V)",
            hi - lo
        ),
        None => println!("\nno locking plateau found"),
    }
    println!(
        "locked fraction of sweep: {:.2}",
        curve.locked_fraction(0.01)
    );
}

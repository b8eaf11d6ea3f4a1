//! E2 — Fig. 5: the XOR measure realizes tunable `l_k` distance norms.
//!
//! For each coupling regime, sweeps `ΔV_gs`, prints the `1 − Avg(XOR)`
//! curve, and fits the exponent `k` of `a·|ΔV_gs|^k + c` near the minimum.
//! Paper values for reference: k ≈ 1.6 → 2.0 → 3.4 across coupling
//! strengths, with fractional tails.

use crate::banner;
use device::units::Seconds;
use osc::norms::{NormRegime, NormSweep};

pub fn run() {
    banner("E2 fig5_norms", "Fig. 5 (l_k norm family)");
    for regime in NormRegime::ALL {
        let mut cfg = regime.config();
        cfg.sim.duration = Seconds(4e-6);
        let sweep = NormSweep::new(cfg).expect("sweep");
        let curve = sweep.run(0.62, 0.014, 11).expect("run");
        println!(
            "\nregime `{regime}` (R_C = {}):",
            regime.coupling_resistance()
        );
        print!("  dVgs    : ");
        for p in curve.points().iter().filter(|p| p.delta_vgs >= 0.0) {
            print!("{:>7.4} ", p.delta_vgs);
        }
        print!("\n  measure : ");
        for p in curve.points().iter().filter(|p| p.delta_vgs >= 0.0) {
            print!("{:>7.3}{}", p.measure, if p.locked { " " } else { "*" });
        }
        println!("   (* = unlocked)");
        match curve.fit_exponent(0.3, 6.0) {
            Ok(fit) => println!(
                "  fitted: measure = {:.3}·|dVgs|^{:.2} + {:.3}  (rss {:.2e})",
                fit.amplitude, fit.exponent, fit.offset, fit.rss
            ),
            Err(e) => println!("  fit failed: {e}"),
        }
    }
    println!("\npaper reference: k ~ 1.6 / 2.0 / 3.4 across coupling strengths");
}

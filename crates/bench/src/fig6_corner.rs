//! E3 — Fig. 6 + the §III-B power claim: FAST corner detection with
//! oscillator distance norms vs the 32 nm CMOS implementation.
//!
//! Paper numbers for reference: oscillator block 0.936 mW (incl. XOR
//! readout) vs CMOS 3 mW — a ≈ 3.2× advantage.

use crate::banner;
use vision::energy::compare_power;
use vision::synth::benchmark_scene;

pub fn run() {
    banner("E3 fig6_corner", "Fig. 6 + 0.936 mW vs 3 mW power claim");
    println!(
        "{:>6} | {:>12} | {:>12} | {:>7} | {:>6} | {:>10}",
        "scene", "osc (mW)", "cmos (mW)", "ratio", "F1", "frame (ms)"
    );
    println!("{}", "-".repeat(68));
    for size in [48usize, 64, 96] {
        let img = benchmark_scene(size).build();
        let cmp = compare_power(&img).expect("comparison");
        println!(
            "{:>4}px | {:>12.3} | {:>12.3} | {:>6.2}x | {:>6.3} | {:>10.3}",
            size,
            cmp.oscillator.0 * 1e3,
            cmp.cmos.0 * 1e3,
            cmp.ratio(),
            cmp.agreement_f1,
            cmp.frame_time.0 * 1e3
        );
    }
    println!("\npaper reference: oscillator 0.936 mW vs CMOS 3.0 mW (3.2x)");
}

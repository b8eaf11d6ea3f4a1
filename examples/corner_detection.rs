//! FAST corner detection with oscillator distance norms (paper Fig. 6),
//! including the 0.936 mW vs 3 mW style power comparison.
//!
//! Run with: `cargo run --release --example corner_detection`

use vision::energy::compare_power;
use vision::metrics::match_against_ground_truth;
use vision::synth::benchmark_scene;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scene = benchmark_scene(64);
    let img = scene.build();
    let truth = scene.ground_truth_corners();
    println!(
        "synthetic scene: {}x{}, {} ground-truth corners",
        img.width(),
        img.height(),
        truth.len()
    );

    // Digital baseline.
    let digital = vision::fast::detect(&img);
    let dm = match_against_ground_truth(&truth, &digital, 2);
    println!(
        "software FAST-9 : {} corners | vs truth: {}",
        digital.len(),
        dm
    );

    // Oscillator pipeline + throughput-matched power comparison.
    println!("\ncalibrating the coupled-oscillator distance primitive …");
    let cmp = compare_power(&img)?;
    println!(
        "oscillator FAST : agreement with digital F1 = {:.3}",
        cmp.agreement_f1
    );
    println!(
        "\npower (throughput-matched, frame time {:.2} ms):",
        cmp.frame_time.0 * 1e3
    );
    println!(
        "  oscillator block : {:.3} mW   (paper: 0.936 mW)",
        cmp.oscillator.0 * 1e3
    );
    println!(
        "  32 nm CMOS engine: {:.3} mW   (paper: 3 mW)",
        cmp.cmos.0 * 1e3
    );
    println!("  ratio            : {:.2}x    (paper: ~3.2x)", cmp.ratio());
    Ok(())
}

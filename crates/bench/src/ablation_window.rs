//! A2 — ablation: XOR-readout averaging window. The paper's readout is
//! "time-averaged over a certain number of cycles to provide a stable
//! output value"; this ablation quantifies the stability–latency trade:
//! under comparator input noise, longer windows shrink the window-to-window
//! spread of the measure but cost proportionally more comparison time.

use crate::banner;
use device::noise::GaussianNoise;
use device::units::{Seconds, Volts};
use osc::norms::NormRegime;
use osc::pair::{CoupledPair, PairRun};
use osc::readout::XorReadout;

/// Simulates the pair once; the noise is injected at readout time.
fn clean_run() -> PairRun {
    let mut cfg = NormRegime::Shallow.config();
    cfg.sim.duration = Seconds(12e-6); // long run → many windows
    let pair = CoupledPair::new(cfg, Volts(0.6225), Volts(0.6175)).expect("bias");
    pair.simulate_default().expect("simulate")
}

/// RMS of the comparator-referred noise applied per waveform sample.
const NOISE_SIGMA: f64 = 0.05;

pub fn run() {
    banner("A2 ablation_window", "Fig. 4 readout averaging window");
    let run = clean_run();
    println!(
        "{:>8} | {:>9} | {:>9} | {:>9} | {:>10}",
        "window", "windows", "mean", "spread", "latency"
    );
    println!("{}", "-".repeat(56));
    let f_osc = run.frequency(0).expect("frequency");
    for cycles in [4usize, 8, 16, 32, 64] {
        let readout = XorReadout::new(cycles);
        let mut noise = GaussianNoise::new(NOISE_SIGMA, 7);
        match readout.measure_windows_noisy(&run, &mut noise) {
            Ok(values) => {
                let mean = values.iter().sum::<f64>() / values.len() as f64;
                let max = values.iter().cloned().fold(f64::MIN, f64::max);
                let min = values.iter().cloned().fold(f64::MAX, f64::min);
                println!(
                    "{:>8} | {:>9} | {:>9.4} | {:>9.4} | {:>8.2}us",
                    cycles,
                    values.len(),
                    mean,
                    max - min,
                    cycles as f64 / f_osc * 1e6
                );
            }
            Err(e) => println!("{cycles:>8} | insufficient cycles: {e}"),
        }
    }
    println!("\nexpected shape: spread shrinks with window length while the");
    println!("per-comparison latency grows linearly");
}

//! Energy and power comparison of the two FAST implementations.
//!
//! Reproduces the paper's §III-B quantitative claim: "The power consumption
//! of the coupled oscillator-based block designed in this example to
//! identify corners is 0.936 mW (including the XOR readout), whereas the
//! power consumption of the corresponding CMOS implementation at the 32 nm
//! process node is 3 mW."
//!
//! The comparison is made **throughput-matched**: the oscillator block owns
//! one comparison unit per ring pixel (16), each taking one readout window
//! of 32 oscillation cycles per comparison; the frame time is therefore
//! `T_frame = comparisons / 16 × T_window`, and the digital implementation
//! is charged with completing its (operation-counted) frame work in the
//! *same* `T_frame`. Both sides then report average power. The setup is
//! the paper's: FAST-9 at `t` = 25 on both sides, the shallow coupling
//! regime around `V_gs` = 0.62 V (a full-scale `ΔV_gs` of 0.02 V, 9
//! calibration points), an 8× oversampled readout clock, and a 32 nm
//! CMOS baseline.
//!
//! # Example
//!
//! ```no_run
//! use vision::energy::compare_power;
//! use vision::synth::benchmark_scene;
//!
//! let img = benchmark_scene(64).build();
//! let cmp = compare_power(&img)?;
//! assert!(cmp.ratio() > 1.0, "oscillator block should win");
//! # Ok::<(), vision::VisionError>(())
//! ```

use crate::fast::detect_counted;
use crate::image::GrayImage;
use crate::osc_fast::OscFastDetector;
use crate::VisionError;
use device::cmos::{CmosEnergyModel, PipelinedDatapath, ProcessNode};
use device::units::{Seconds, Volts, Watts};
use osc::norms::{NormRegime, OscillatorDistance};
use osc::pair::CoupledPair;
use osc::power::block_power;

/// Oscillator coupling regime of the distance primitive.
const REGIME: NormRegime = NormRegime::Shallow;
/// Parallel oscillator comparison units in the block: one per ring pixel.
const PARALLEL_PAIRS: usize = 16;
/// XOR readout window, in oscillation cycles.
const WINDOW_CYCLES: usize = 32;
/// Oversampling factor of the readout clock.
const READOUT_OVERSAMPLE: f64 = 8.0;
/// CMOS technology node of the digital baseline.
const NODE: ProcessNode = ProcessNode::Nm32;
/// Centre gate voltage of the input encoding.
const V_CENTER: f64 = 0.62;
/// Full-scale `ΔV_gs` of the input encoding.
const FULL_SCALE: f64 = 0.02;
/// Calibration points of the distance primitive.
const CALIBRATION_POINTS: usize = 9;

/// Result of the throughput-matched power comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerComparison {
    /// Oscillator-block power (analog cells + XOR readout, all parallel
    /// units).
    pub oscillator: Watts,
    /// Digital CMOS power at the matched frame time.
    pub cmos: Watts,
    /// The common frame time both implementations are held to.
    pub frame_time: Seconds,
    /// Oscillator comparisons performed for the frame.
    pub comparisons: u64,
    /// Digital operations performed for the frame.
    pub digital_ops: u64,
    /// Agreement (F1) between the two detectors' corner sets.
    pub agreement_f1: f64,
}

impl PowerComparison {
    /// CMOS-to-oscillator power ratio (> 1 means the oscillator block wins,
    /// as the paper claims with 3 mW / 0.936 mW ≈ 3.2).
    #[must_use]
    pub fn ratio(&self) -> f64 {
        self.cmos.0 / self.oscillator.0
    }
}

impl std::fmt::Display for PowerComparison {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "oscillator {:.3} mW vs cmos {:.3} mW (ratio {:.2}x, f1 {:.3})",
            self.oscillator.0 * 1e3,
            self.cmos.0 * 1e3,
            self.ratio(),
            self.agreement_f1
        )
    }
}

/// Runs both detectors on `img` and produces the throughput-matched power
/// comparison.
///
/// # Errors
///
/// Propagates oscillator calibration/simulation errors.
pub fn compare_power(img: &GrayImage) -> Result<PowerComparison, VisionError> {
    // --- Oscillator side -------------------------------------------------
    let config = REGIME.config();
    let distance = OscillatorDistance::calibrate(config, V_CENTER, FULL_SCALE, CALIBRATION_POINTS)?;
    let osc_out = OscFastDetector::new(distance).detect(img);

    // Representative pair (mid-range inputs) for power/frequency numbers.
    let pair = CoupledPair::new(config, Volts(V_CENTER), Volts(V_CENTER))?;
    let run = pair.simulate_default()?;
    let model = CmosEnergyModel::new(NODE);
    let unit = block_power(&pair, &run, &model, READOUT_OVERSAMPLE)?;
    let osc_block = Watts(unit.total().0 * PARALLEL_PAIRS as f64);

    let f_osc = run.frequency(0)?;
    let window_time = WINDOW_CYCLES as f64 / f_osc;
    let rounds = (osc_out.comparisons as f64 / PARALLEL_PAIRS as f64).ceil();
    let frame_time = Seconds(rounds * window_time);

    // --- Digital side -----------------------------------------------------
    let (digital_corners, counts) = detect_counted(img);
    let engine = PipelinedDatapath::vision_engine(NODE);
    let cmos_power = engine.average_power(&counts, frame_time);

    let agreement = crate::metrics::match_corners(&digital_corners, &osc_out.corners, 2);

    Ok(PowerComparison {
        oscillator: osc_block,
        cmos: cmos_power,
        frame_time,
        comparisons: osc_out.comparisons,
        digital_ops: counts.total(),
        agreement_f1: agreement.f1(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::benchmark_scene;

    fn quick_compare(size: usize) -> PowerComparison {
        compare_power(&benchmark_scene(size).build()).unwrap()
    }

    #[test]
    fn oscillator_block_wins_on_power() {
        let cmp = quick_compare(48);
        assert!(
            cmp.ratio() > 1.0,
            "expected oscillator advantage, got {cmp}"
        );
    }

    #[test]
    fn detectors_agree_reasonably() {
        let cmp = quick_compare(48);
        assert!(cmp.agreement_f1 > 0.5, "agreement too low: {cmp}");
    }

    #[test]
    fn oscillator_power_sub_10mw() {
        let cmp = quick_compare(48);
        assert!(
            cmp.oscillator.0 < 10e-3,
            "oscillator block {} W implausibly high",
            cmp.oscillator.0
        );
        assert!(cmp.oscillator.0 > 10e-6);
    }

    #[test]
    fn frame_time_positive_and_subsecond() {
        let cmp = quick_compare(48);
        assert!(cmp.frame_time.0 > 0.0);
        assert!(cmp.frame_time.0 < 1.0);
    }

    #[test]
    fn counts_populated() {
        let cmp = quick_compare(48);
        assert!(cmp.comparisons > 0);
        assert!(cmp.digital_ops > 0);
    }

    #[test]
    fn display_mentions_ratio() {
        let cmp = quick_compare(48);
        assert!(cmp.to_string().contains("ratio"));
    }
}

//! Energy and power comparison of the two FAST implementations.
//!
//! Reproduces the paper's §III-B quantitative claim: "The power consumption
//! of the coupled oscillator-based block designed in this example to
//! identify corners is 0.936 mW (including the XOR readout), whereas the
//! power consumption of the corresponding CMOS implementation at the 32 nm
//! process node is 3 mW."
//!
//! The comparison is made **throughput-matched**: the oscillator block owns
//! `parallel_pairs` comparison units, each taking one readout window per
//! comparison; the frame time is therefore
//! `T_frame = comparisons / parallel_pairs × T_window`, and the digital
//! implementation is charged with completing its (operation-counted) frame
//! work in the *same* `T_frame`. Both sides then report average power.
//!
//! # Example
//!
//! ```no_run
//! use vision::energy::{compare_power, ComparisonSetup};
//! use vision::synth::benchmark_scene;
//!
//! let img = benchmark_scene(64).build();
//! let setup = ComparisonSetup::default();
//! let cmp = compare_power(&img, &setup)?;
//! assert!(cmp.ratio() > 1.0, "oscillator block should win");
//! # Ok::<(), vision::VisionError>(())
//! ```

use crate::fast::{FastDetector, FastParams};
use crate::image::GrayImage;
use crate::osc_fast::{OscFastDetector, OscFastParams};
use crate::VisionError;
use device::cmos::{CmosEnergyModel, PipelinedDatapath, ProcessNode};
use device::units::{Seconds, Volts, Watts};
use osc::norms::{NormRegime, OscillatorDistance};
use osc::pair::CoupledPair;
use osc::power::block_power;

/// Configuration of the power comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComparisonSetup {
    /// Oscillator coupling regime used for the distance primitive.
    pub regime: NormRegime,
    /// Number of parallel oscillator comparison units in the block (the
    /// paper's dataflow uses one per ring pixel: 16).
    pub parallel_pairs: usize,
    /// XOR readout window, in oscillation cycles.
    pub window_cycles: usize,
    /// Oversampling factor of the readout clock.
    pub readout_oversample: f64,
    /// CMOS technology node for the digital baseline.
    pub node: ProcessNode,
    /// FAST parameters shared by both implementations.
    pub fast: FastParams,
    /// Centre gate voltage of the input encoding.
    pub v_center: f64,
    /// Full-scale `ΔV_gs` of the input encoding.
    pub full_scale: f64,
    /// Calibration points for the distance primitive.
    pub calibration_points: usize,
}

impl Default for ComparisonSetup {
    fn default() -> Self {
        ComparisonSetup {
            regime: NormRegime::Shallow,
            parallel_pairs: 16,
            window_cycles: 32,
            readout_oversample: 8.0,
            node: ProcessNode::Nm32,
            fast: FastParams::default(),
            v_center: 0.62,
            full_scale: 0.02,
            calibration_points: 9,
        }
    }
}

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
pub fn compare_power(
    img: &GrayImage,
    setup: &ComparisonSetup,
) -> Result<PowerComparison, VisionError> {
    // --- Oscillator side -------------------------------------------------
    let config = setup.regime.config();
    let distance = OscillatorDistance::calibrate(
        config,
        setup.v_center,
        setup.full_scale,
        setup.calibration_points,
    )?;
    let osc_params = OscFastParams {
        n_contiguous: setup.fast.n_contiguous,
        threshold: setup.fast.threshold,
        reject_false_positives: true,
        quick_reject: true,
    };
    let osc_detector = OscFastDetector::new(distance, osc_params);
    let osc_out = osc_detector.detect(img);

    // Representative pair (mid-range inputs) for power/frequency numbers.
    let pair = CoupledPair::new(config, Volts(setup.v_center), Volts(setup.v_center))?;
    let run = pair.simulate_default()?;
    let model = CmosEnergyModel::new(setup.node);
    let unit = block_power(&pair, &run, &model, setup.readout_oversample)?;
    let osc_block = Watts(unit.total().0 * setup.parallel_pairs as f64);

    let f_osc = run.frequency(0)?;
    let window_time = setup.window_cycles.max(1) as f64 / f_osc;
    let rounds = (osc_out.comparisons as f64 / setup.parallel_pairs.max(1) as f64).ceil();
    let frame_time = Seconds(rounds * window_time);

    // --- Digital side -----------------------------------------------------
    let (digital_corners, counts) = FastDetector::new(setup.fast).detect_counted(img);
    let engine = PipelinedDatapath::vision_engine(setup.node);
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

    fn quick_setup() -> ComparisonSetup {
        ComparisonSetup {
            calibration_points: 5,
            ..ComparisonSetup::default()
        }
    }

    fn quick_compare(size: usize) -> PowerComparison {
        let img = benchmark_scene(size).build();
        // Few calibration points keep the test fast; the default sim
        // durations are already modest (3 µs).
        let setup = quick_setup();
        compare_power(&img, &setup).unwrap()
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

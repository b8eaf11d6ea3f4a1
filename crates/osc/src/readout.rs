//! Thresholded, time-averaged XOR readout (paper Fig. 4).
//!
//! The readout circuit takes the two synchronized oscillator waveforms,
//! thresholds each into a logic level, XORs them, and time-averages the XOR
//! output "over a certain number of cycles to provide a stable output
//! value". The reported quantity is `1 − Avg(XOR)`.
//!
//! [`XorReadout`] performs that measurement over a configurable window of
//! cycles (the ablation knob of experiment A2), and
//! [`readout_op_counts`] models the digital cost of the readout for the
//! power comparison (two comparators, one XOR, and an up/down averaging
//! counter clocked every sample).
//!
//! # Example
//!
//! ```
//! use osc::pair::{CoupledPair, PairConfig};
//! use osc::readout::XorReadout;
//! use device::noise::GaussianNoise;
//! use device::units::Volts;
//!
//! let pair = CoupledPair::new(PairConfig::default(), Volts(0.62), Volts(0.62))?;
//! let run = pair.simulate_default()?;
//! let mut noise = GaussianNoise::new(0.0, 1);
//! let windows = XorReadout::new(8).measure_windows_noisy(&run, &mut noise)?;
//! assert!(windows.iter().all(|m| (0.0..=1.0).contains(m)));
//! # Ok::<(), osc::OscError>(())
//! ```

use crate::pair::PairRun;
use crate::OscError;
use device::cmos::{Op, OpCounts};
use numerics::signal;

/// The Fig. 4 readout: threshold → XOR → average over a window of cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct XorReadout {
    window_cycles: usize,
}

impl XorReadout {
    /// Creates a readout averaging over `window_cycles` cycles of
    /// oscillator 0 (0 reads as 1).
    #[must_use]
    pub fn new(window_cycles: usize) -> Self {
        XorReadout { window_cycles }
    }

    /// Measures over every disjoint window in the run, with
    /// comparator-referred Gaussian-equivalent noise added to every waveform
    /// sample before thresholding — the disturbance the averaging window
    /// exists to suppress. Used by the window-length ablation (A2) to expose
    /// the stability–latency trade.
    ///
    /// # Errors
    ///
    /// * [`OscError::TooFewCycles`] when the run holds fewer cycles than the
    ///   window requests.
    /// * Propagates waveform-access errors.
    pub fn measure_windows_noisy(
        &self,
        run: &PairRun,
        noise: &mut dyn device::noise::NoiseSource,
    ) -> Result<Vec<f64>, OscError> {
        let mut a = run.waveform(0)?.to_vec();
        let mut b = run.waveform(1)?.to_vec();
        for v in a.iter_mut().chain(b.iter_mut()) {
            *v += noise.sample();
        }
        let threshold = run.as_run().threshold().0;
        let window = self.window_cycles.max(1);
        let crossings = signal::rising_crossings(&a, threshold);
        if crossings.len() < window + 1 {
            return Err(OscError::TooFewCycles {
                found: crossings.len().saturating_sub(1),
                required: window,
            });
        }
        let mut out = Vec::new();
        let mut cycle = 0;
        while cycle + window < crossings.len() {
            let start = crossings[cycle].ceil() as usize;
            let end = (crossings[cycle + window].floor() as usize).min(a.len());
            out.push(signal::xor_measure(
                &a[start..end],
                &b[start..end],
                threshold,
            )?);
            cycle += window;
        }
        Ok(out)
    }
}

/// Digital activity of one readout operation (per comparison): two analog
/// comparators (modelled as 8-bit compares), an XOR gate evaluated every
/// sample, and an averaging counter flip-flop clocked every sample.
///
/// `samples` is the number of clocked samples in the averaging window.
#[must_use]
pub fn readout_op_counts(samples: u64) -> OpCounts {
    let mut counts = OpCounts::new();
    counts.add(Op::Compare8, 2 * samples);
    counts.add(Op::LogicGate, samples);
    counts.add(Op::FlipFlop, samples);
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pair::{CoupledPair, PairConfig};
    use device::units::Volts;

    fn run(v1: f64, v2: f64) -> PairRun {
        CoupledPair::new(PairConfig::default(), Volts(v1), Volts(v2))
            .unwrap()
            .simulate_default()
            .unwrap()
    }

    #[test]
    fn too_long_window_rejected() {
        let r = run(0.62, 0.62);
        let mut noise = device::noise::GaussianNoise::new(0.0, 1);
        let res = XorReadout::new(100_000).measure_windows_noisy(&r, &mut noise);
        assert!(matches!(res, Err(OscError::TooFewCycles { .. })));
    }

    #[test]
    fn noisy_windows_have_spread_that_shrinks_with_length() {
        use device::noise::GaussianNoise;
        let mut cfg = PairConfig::default();
        cfg.sim.duration = device::units::Seconds(8e-6);
        let r = CoupledPair::new(cfg, Volts(0.6225), Volts(0.6175))
            .unwrap()
            .simulate_default()
            .unwrap();
        let spread = |cycles: usize, seed: u64| {
            let mut noise = GaussianNoise::new(0.05, seed);
            let values = XorReadout::new(cycles)
                .measure_windows_noisy(&r, &mut noise)
                .unwrap();
            let max = values.iter().cloned().fold(f64::MIN, f64::max);
            let min = values.iter().cloned().fold(f64::MAX, f64::min);
            max - min
        };
        let short = spread(4, 1);
        let long = spread(32, 1);
        assert!(short > 0.0, "noise must create window-to-window spread");
        assert!(
            long <= short,
            "averaging should not increase spread: {short} vs {long}"
        );
    }

    #[test]
    fn op_counts_scale_with_samples() {
        let c = readout_op_counts(100);
        assert_eq!(c.count(Op::Compare8), 200);
        assert_eq!(c.count(Op::LogicGate), 100);
        assert_eq!(c.count(Op::FlipFlop), 100);
    }
}

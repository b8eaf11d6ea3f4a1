//! Waveform analysis for oscillator readout.
//!
//! The coupled-oscillator computing model of the paper's §III never reads
//! voltages directly — it thresholds waveforms into boolean streams, XORs
//! two streams, and time-averages the result over a window of cycles
//! (Fig. 4). This module provides exactly those primitives, plus the
//! frequency/period estimators used to detect frequency locking (Fig. 3).
//!
//! # Example
//!
//! ```
//! use numerics::signal;
//!
//! // A 5 Hz square-ish wave sampled at 1 kHz.
//! let dt = 1e-3;
//! let wave: Vec<f64> = (0..2000)
//!     .map(|i| (2.0 * std::f64::consts::PI * 5.0 * i as f64 * dt).sin())
//!     .collect();
//! let freq = signal::estimate_frequency(&wave, dt, 0.0).expect("enough cycles");
//! assert!((freq - 5.0).abs() < 0.1);
//! ```

use crate::NumericsError;

/// Thresholds a waveform into a boolean stream: `true` where
/// `sample > threshold`.
#[must_use]
pub(crate) fn threshold(wave: &[f64], level: f64) -> Vec<bool> {
    wave.iter().map(|&v| v > level).collect()
}

/// Pointwise XOR of two boolean streams.
///
/// # Errors
///
/// Returns [`NumericsError::DimensionMismatch`] when the streams have
/// different lengths.
pub(crate) fn xor(a: &[bool], b: &[bool]) -> Result<Vec<bool>, NumericsError> {
    if a.len() != b.len() {
        return Err(NumericsError::DimensionMismatch {
            expected: a.len(),
            actual: b.len(),
        });
    }
    Ok(a.iter().zip(b).map(|(&x, &y)| x ^ y).collect())
}

/// Fraction of `true` samples — the time average of a boolean stream.
///
/// Returns 0 for an empty stream.
#[must_use]
pub(crate) fn duty(stream: &[bool]) -> f64 {
    if stream.is_empty() {
        return 0.0;
    }
    stream.iter().filter(|&&b| b).count() as f64 / stream.len() as f64
}

/// The paper's Fig. 4 readout: threshold both waveforms, XOR, time-average,
/// and return `1 − Avg(XOR)` so that identical waveforms score 1 and
/// anti-phase waveforms score 0.
///
/// # Errors
///
/// Returns [`NumericsError::DimensionMismatch`] when waveforms have
/// different lengths, or [`NumericsError::InsufficientData`] when empty.
pub fn xor_measure(a: &[f64], b: &[f64], level: f64) -> Result<f64, NumericsError> {
    if a.is_empty() {
        return Err(NumericsError::InsufficientData {
            required: 1,
            provided: 0,
        });
    }
    let ta = threshold(a, level);
    let tb = threshold(b, level);
    let x = xor(&ta, &tb)?;
    Ok(1.0 - duty(&x))
}

/// Times (in samples, linearly interpolated) of rising crossings through
/// `level`.
#[must_use]
pub fn rising_crossings(wave: &[f64], level: f64) -> Vec<f64> {
    let mut out = Vec::new();
    for i in 1..wave.len() {
        let (lo, hi) = (wave[i - 1], wave[i]);
        if lo <= level && hi > level {
            let frac = if hi != lo {
                (level - lo) / (hi - lo)
            } else {
                0.0
            };
            out.push((i - 1) as f64 + frac);
        }
    }
    out
}

/// Estimates the fundamental period of a waveform (in seconds) from the mean
/// spacing of rising threshold crossings.
///
/// # Errors
///
/// Returns [`NumericsError::InsufficientData`] when fewer than two rising
/// crossings exist (less than one full cycle captured).
pub(crate) fn estimate_period(wave: &[f64], dt: f64, level: f64) -> Result<f64, NumericsError> {
    let crossings = rising_crossings(wave, level);
    if crossings.len() < 2 {
        return Err(NumericsError::InsufficientData {
            required: 2,
            provided: crossings.len(),
        });
    }
    Ok(mean_spacing(&crossings) * dt)
}

/// Mean spacing, in samples, of two or more crossing times.
fn mean_spacing(crossings: &[f64]) -> f64 {
    let total = crossings.last().expect("nonempty") - crossings[0];
    total / (crossings.len() - 1) as f64
}

/// Estimates the fundamental frequency in Hz. See `estimate_period`.
///
/// # Errors
///
/// Propagates `estimate_period` errors.
pub fn estimate_frequency(wave: &[f64], dt: f64, level: f64) -> Result<f64, NumericsError> {
    Ok(1.0 / estimate_period(wave, dt, level)?)
}

/// Mean phase difference between two locked waveforms, in radians `[0, 2π)`.
///
/// Computed from the offsets of `b`'s rising crossings relative to the
/// nearest preceding rising crossing of `a`, normalized by `a`'s period.
///
/// # Errors
///
/// Returns [`NumericsError::InsufficientData`] when either waveform has
/// fewer than two rising crossings.
pub fn phase_difference(a: &[f64], b: &[f64], dt: f64, level: f64) -> Result<f64, NumericsError> {
    let ca = rising_crossings(a, level);
    let cb = rising_crossings(b, level);
    if ca.len() < 2 || cb.len() < 2 {
        return Err(NumericsError::InsufficientData {
            required: 2,
            provided: ca.len().min(cb.len()),
        });
    }
    // The reference's period in samples: [`estimate_period`], in seconds,
    // divided by `dt` again.
    let period = mean_spacing(&ca) * dt / dt;
    // Use circular mean so phases near 0/2π do not cancel.
    let (mut sx, mut sy) = (0.0, 0.0);
    let mut count = 0usize;
    for &tb in &cb {
        // Nearest preceding crossing of `a`.
        let prev = ca.iter().rev().find(|&&ta| ta <= tb);
        if let Some(&ta) = prev {
            let phase = (tb - ta) / period * std::f64::consts::TAU;
            sx += phase.cos();
            sy += phase.sin();
            count += 1;
        }
    }
    if count == 0 {
        return Err(NumericsError::InsufficientData {
            required: 1,
            provided: 0,
        });
    }
    let mean = sy.atan2(sx);
    Ok(if mean < 0.0 {
        mean + std::f64::consts::TAU
    } else {
        mean
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sine(freq: f64, phase: f64, dt: f64, n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| (std::f64::consts::TAU * freq * i as f64 * dt + phase).sin())
            .collect()
    }

    #[test]
    fn threshold_basic() {
        let t = threshold(&[-1.0, 0.5, 2.0], 0.0);
        assert_eq!(t, vec![false, true, true]);
    }

    #[test]
    fn xor_and_duty() {
        let a = vec![true, true, false, false];
        let b = vec![true, false, true, false];
        let x = xor(&a, &b).unwrap();
        assert_eq!(x, vec![false, true, true, false]);
        assert_eq!(duty(&x), 0.5);
    }

    #[test]
    fn xor_length_mismatch() {
        assert!(xor(&[true], &[true, false]).is_err());
    }

    #[test]
    fn duty_empty_is_zero() {
        assert_eq!(duty(&[]), 0.0);
    }

    #[test]
    fn xor_measure_identical_waves_is_one() {
        let w = sine(5.0, 0.0, 1e-3, 2000);
        let m = xor_measure(&w, &w, 0.0).unwrap();
        assert_eq!(m, 1.0);
    }

    #[test]
    fn xor_measure_antiphase_near_zero() {
        let a = sine(5.0, 0.0, 1e-3, 2000);
        let b = sine(5.0, std::f64::consts::PI, 1e-3, 2000);
        let m = xor_measure(&a, &b, 0.0).unwrap();
        assert!(m < 0.02, "measure was {m}");
    }

    #[test]
    fn xor_measure_quadrature_is_half() {
        let a = sine(5.0, 0.0, 1e-3, 2000);
        let b = sine(5.0, std::f64::consts::FRAC_PI_2, 1e-3, 2000);
        let m = xor_measure(&a, &b, 0.0).unwrap();
        assert!((m - 0.5).abs() < 0.05, "measure was {m}");
    }

    #[test]
    fn frequency_estimate_accurate() {
        let w = sine(7.5, 0.3, 1e-4, 40000);
        let f = estimate_frequency(&w, 1e-4, 0.0).unwrap();
        assert!((f - 7.5).abs() < 0.01, "estimated {f}");
    }

    #[test]
    fn period_needs_two_crossings() {
        let w = vec![0.0; 10];
        assert!(matches!(
            estimate_period(&w, 1e-3, 0.5),
            Err(NumericsError::InsufficientData { .. })
        ));
    }

    #[test]
    fn phase_difference_quadrature() {
        let a = sine(5.0, 0.0, 1e-4, 20000);
        // b lags a by π/2.
        let b = sine(5.0, -std::f64::consts::FRAC_PI_2, 1e-4, 20000);
        let dphi = phase_difference(&a, &b, 1e-4, 0.0).unwrap();
        assert!(
            (dphi - std::f64::consts::FRAC_PI_2).abs() < 0.05,
            "phase was {dphi}"
        );
    }

    #[test]
    fn phase_difference_zero_for_identical() {
        let a = sine(5.0, 0.0, 1e-4, 20000);
        let dphi = phase_difference(&a, &a, 1e-4, 0.0).unwrap();
        // Either ~0 or ~2π.
        let wrapped = dphi.min(std::f64::consts::TAU - dphi);
        assert!(wrapped < 0.02, "phase was {dphi}");
    }

    #[test]
    fn rising_crossings_interpolate() {
        // Line from -1 to 1 over two samples crosses 0 midway.
        let w = vec![-1.0, 1.0];
        let c = rising_crossings(&w, 0.0);
        assert_eq!(c.len(), 1);
        assert!((c[0] - 0.5).abs() < 1e-12);
    }
}

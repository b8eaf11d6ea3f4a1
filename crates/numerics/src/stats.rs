//! Descriptive statistics: sample summaries, medians and percentiles.
//!
//! Every experiment harness in the workspace reports medians and percentile
//! spreads over many seeded trials (e.g. time-to-solution distributions for
//! the memcomputing solver of §IV), so these helpers are shared here.
//!
//! # Example
//!
//! ```
//! use numerics::stats::Summary;
//!
//! let s = Summary::from_slice(&[1.0, 2.0, 3.0, 4.0, 100.0])?;
//! assert_eq!(s.median, 3.0);
//! assert_eq!(s.min, 1.0);
//! assert_eq!(s.max, 100.0);
//! # Ok::<(), numerics::NumericsError>(())
//! ```

use crate::NumericsError;

/// Five-number-style summary of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation (n−1 denominator; 0 for n = 1).
    pub std_dev: f64,
    /// Minimum.
    pub min: f64,
    /// 25th percentile.
    pub q25: f64,
    /// Median (50th percentile).
    pub median: f64,
    /// 75th percentile.
    pub q75: f64,
    /// Maximum.
    pub max: f64,
}

impl Summary {
    /// Computes a summary of `data`.
    ///
    /// # Errors
    ///
    /// * [`NumericsError::InsufficientData`] for an empty slice.
    /// * [`NumericsError::InvalidArgument`] when `data` holds a NaN.
    pub fn from_slice(data: &[f64]) -> Result<Self, NumericsError> {
        let sorted = sorted_copy(data)?;
        let n = sorted.len();
        let mean = sorted.iter().sum::<f64>() / n as f64;
        let var = if n > 1 {
            sorted.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1) as f64
        } else {
            0.0
        };
        Ok(Summary {
            n,
            mean,
            std_dev: var.sqrt(),
            min: sorted[0],
            q25: percentile_sorted(&sorted, 25.0),
            median: percentile_sorted(&sorted, 50.0),
            q75: percentile_sorted(&sorted, 75.0),
            max: sorted[n - 1],
        })
    }
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "n={} mean={:.4} sd={:.4} min={:.4} p25={:.4} med={:.4} p75={:.4} max={:.4}",
            self.n, self.mean, self.std_dev, self.min, self.q25, self.median, self.q75, self.max
        )
    }
}

/// Linear-interpolated percentile of *sorted* data, `p` in `[0, 100]`.
///
/// # Panics
///
/// Panics (in debug builds) when `data` is empty.
#[must_use]
pub fn percentile_sorted(data: &[f64], p: f64) -> f64 {
    debug_assert!(!data.is_empty());
    if data.len() == 1 {
        return data[0];
    }
    let rank = (p / 100.0).clamp(0.0, 1.0) * (data.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    data[lo] * (1.0 - frac) + data[hi] * frac
}

/// Median of unsorted data.
///
/// # Errors
///
/// * [`NumericsError::InsufficientData`] for an empty slice.
/// * [`NumericsError::InvalidArgument`] when `data` holds a NaN.
pub fn median(data: &[f64]) -> Result<f64, NumericsError> {
    Ok(percentile_sorted(&sorted_copy(data)?, 50.0))
}

/// A sorted copy of nonempty, NaN-free `data`.
fn sorted_copy(data: &[f64]) -> Result<Vec<f64>, NumericsError> {
    if data.is_empty() {
        return Err(NumericsError::InsufficientData {
            required: 1,
            provided: 0,
        });
    }
    if data.iter().any(|x| x.is_nan()) {
        return Err(NumericsError::InvalidArgument {
            what: "statistics input must not contain NaN",
        });
    }
    let mut sorted = data.to_vec();
    // Without NaN every pair compares; equal keys keep their order.
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    Ok(sorted)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    #[test]
    fn summary_basic() {
        let s = Summary::from_slice(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]).unwrap();
        assert!(approx_eq(s.mean, 5.0, 1e-12));
        assert!(approx_eq(s.std_dev, (32.0f64 / 7.0).sqrt(), 1e-12));
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 9.0);
    }

    #[test]
    fn summary_empty_rejected() {
        assert!(Summary::from_slice(&[]).is_err());
    }

    #[test]
    fn summary_single_value() {
        let s = Summary::from_slice(&[3.0]).unwrap();
        assert_eq!(s.median, 3.0);
        assert_eq!(s.std_dev, 0.0);
    }

    #[test]
    fn nan_input_is_an_error_not_a_panic() {
        let data = [1.0, f64::NAN, 2.0];
        let nan = NumericsError::InvalidArgument {
            what: "statistics input must not contain NaN",
        };
        assert_eq!(Summary::from_slice(&data), Err(nan.clone()));
        assert_eq!(median(&data), Err(nan));
    }

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]).unwrap(), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]).unwrap(), 2.5);
    }

    #[test]
    fn percentile_interpolates() {
        let data = [0.0, 10.0];
        assert_eq!(percentile_sorted(&data, 50.0), 5.0);
        assert_eq!(percentile_sorted(&data, 0.0), 0.0);
        assert_eq!(percentile_sorted(&data, 100.0), 10.0);
    }
}

//! Descriptive statistics: medians and percentiles.
//!
//! Every experiment harness in the workspace reports medians and percentile
//! spreads over many seeded trials (e.g. time-to-solution distributions for
//! the memcomputing solver of §IV), so these helpers are shared here.
//!
//! # Example
//!
//! ```
//! use numerics::stats::median;
//!
//! assert_eq!(median(&[1.0, 2.0, 3.0, 4.0, 100.0])?, 3.0);
//! # Ok::<(), numerics::NumericsError>(())
//! ```

use crate::NumericsError;

/// Linear-interpolated percentile of *sorted* data, `p` in `[0, 100]`.
///
/// # Panics
///
/// Panics (in debug builds) when `data` is empty.
#[must_use]
pub(crate) fn percentile_sorted(data: &[f64], p: f64) -> f64 {
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

    #[test]
    fn nan_input_is_an_error_not_a_panic() {
        let data = [1.0, f64::NAN, 2.0];
        let nan = NumericsError::InvalidArgument {
            what: "statistics input must not contain NaN",
        };
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

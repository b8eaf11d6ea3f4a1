//! Curve fitting.
//!
//! The headline use is extracting the `l_k` norm exponent from the
//! coupled-oscillator XOR-measure curves (paper Fig. 5): near its minimum the
//! measure behaves as `m(Δ) ≈ a·|Δ|^k + c`, and the exponent `k` is the
//! quantity the paper tabulates (~1.6 → 2.0 → 3.4 with coupling strength).
//! [`fit_power_law_offset`] recovers `k` by golden-section search over the
//! exponent with an inner linear least-squares solve for `(a, c)`.
//!
//! # Example
//!
//! ```
//! use numerics::fit;
//!
//! // Synthesize y = 2·|x|^1.7 + 0.25 and recover the exponent.
//! let xs: Vec<f64> = (1..=40).map(|i| i as f64 * 0.05).collect();
//! let ys: Vec<f64> = xs.iter().map(|x| 2.0 * x.abs().powf(1.7) + 0.25).collect();
//! let fit = fit::fit_power_law_offset(&xs, &ys, 0.2, 6.0)?;
//! assert!((fit.exponent - 1.7).abs() < 1e-3);
//! # Ok::<(), numerics::NumericsError>(())
//! ```

use crate::NumericsError;

/// Result of an ordinary least-squares line fit `y = slope·x + intercept`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct LineFit {
    /// Fitted slope.
    pub slope: f64,
    /// Fitted intercept.
    pub intercept: f64,
    /// Coefficient of determination R².
    pub r_squared: f64,
}

/// Ordinary least-squares straight-line fit.
///
/// # Errors
///
/// * [`NumericsError::DimensionMismatch`] when `xs` and `ys` differ in length.
/// * [`NumericsError::InsufficientData`] when fewer than 2 points are given.
/// * [`NumericsError::SingularMatrix`] when all `xs` are identical.
pub(crate) fn fit_line(xs: &[f64], ys: &[f64]) -> Result<LineFit, NumericsError> {
    if xs.len() != ys.len() {
        return Err(NumericsError::DimensionMismatch {
            expected: xs.len(),
            actual: ys.len(),
        });
    }
    if xs.len() < 2 {
        return Err(NumericsError::InsufficientData {
            required: 2,
            provided: xs.len(),
        });
    }
    let n = xs.len() as f64;
    let sx: f64 = xs.iter().sum();
    let sy: f64 = ys.iter().sum();
    let sxx: f64 = xs.iter().map(|x| x * x).sum();
    let sxy: f64 = xs.iter().zip(ys).map(|(x, y)| x * y).sum();
    let denom = n * sxx - sx * sx;
    if denom.abs() < 1e-300 {
        return Err(NumericsError::SingularMatrix);
    }
    let slope = (n * sxy - sx * sy) / denom;
    let intercept = (sy - slope * sx) / n;

    let mean_y = sy / n;
    let ss_tot: f64 = ys.iter().map(|y| (y - mean_y).powi(2)).sum();
    let ss_res: f64 = xs
        .iter()
        .zip(ys)
        .map(|(x, y)| (y - (slope * x + intercept)).powi(2))
        .sum();
    let r_squared = if ss_tot > 0.0 {
        1.0 - ss_res / ss_tot
    } else {
        1.0
    };
    Ok(LineFit {
        slope,
        intercept,
        r_squared,
    })
}

/// Result of a power-law-with-offset fit `y = amplitude·|x|^exponent + offset`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerLawFit {
    /// Fitted exponent `k`.
    pub exponent: f64,
    /// Fitted amplitude `a`.
    pub amplitude: f64,
    /// Fitted offset `c`.
    pub offset: f64,
    /// Residual sum of squares at the optimum.
    pub rss: f64,
}

/// Fits `y = a·|x|^k + c` over `k ∈ [k_lo, k_hi]`.
///
/// The exponent is located by golden-section search on the residual sum of
/// squares; for each candidate `k` the optimal `(a, c)` are found by linear
/// least squares (a 2×2 normal-equation solve), making the search robust.
///
/// # Errors
///
/// * [`NumericsError::DimensionMismatch`] when `xs` and `ys` differ in length.
/// * [`NumericsError::InsufficientData`] when fewer than 3 points are given.
/// * [`NumericsError::InvalidArgument`] when the exponent bracket is invalid.
/// * [`NumericsError::SingularMatrix`] when the design matrix degenerates
///   (e.g. all `|x|` identical).
pub fn fit_power_law_offset(
    xs: &[f64],
    ys: &[f64],
    k_lo: f64,
    k_hi: f64,
) -> Result<PowerLawFit, NumericsError> {
    if xs.len() != ys.len() {
        return Err(NumericsError::DimensionMismatch {
            expected: xs.len(),
            actual: ys.len(),
        });
    }
    if xs.len() < 3 {
        return Err(NumericsError::InsufficientData {
            required: 3,
            provided: xs.len(),
        });
    }
    if !(k_lo > 0.0) || !(k_hi > k_lo) {
        return Err(NumericsError::InvalidArgument {
            what: "exponent bracket must satisfy 0 < k_lo < k_hi",
        });
    }

    let rss_for = |k: f64| -> Result<(f64, f64, f64), NumericsError> {
        // Least squares for y = a·b(x) + c with b(x) = |x|^k.
        let n = xs.len() as f64;
        let b: Vec<f64> = xs.iter().map(|x| x.abs().powf(k)).collect();
        let sb: f64 = b.iter().sum();
        let sbb: f64 = b.iter().map(|v| v * v).sum();
        let sy: f64 = ys.iter().sum();
        let sby: f64 = b.iter().zip(ys).map(|(v, y)| v * y).sum();
        let [a, c] = solve_2x2([[sbb, sb], [sb, n]], [sby, sy])?;
        let rss: f64 = b
            .iter()
            .zip(ys)
            .map(|(v, y)| (y - (a * v + c)).powi(2))
            .sum();
        Ok((rss, a, c))
    };

    // Golden-section search for the exponent minimizing RSS.
    const PHI: f64 = 0.618_033_988_749_894_8;
    let mut lo = k_lo;
    let mut hi = k_hi;
    let mut k1 = hi - PHI * (hi - lo);
    let mut k2 = lo + PHI * (hi - lo);
    let mut f1 = rss_for(k1)?.0;
    let mut f2 = rss_for(k2)?.0;
    for _ in 0..120 {
        if (hi - lo).abs() < 1e-10 {
            break;
        }
        if f1 < f2 {
            hi = k2;
            k2 = k1;
            f2 = f1;
            k1 = hi - PHI * (hi - lo);
            f1 = rss_for(k1)?.0;
        } else {
            lo = k1;
            k1 = k2;
            f1 = f2;
            k2 = lo + PHI * (hi - lo);
            f2 = rss_for(k2)?.0;
        }
    }
    let k = 0.5 * (lo + hi);
    let (rss, amplitude, offset) = rss_for(k)?;
    Ok(PowerLawFit {
        exponent: k,
        amplitude,
        offset,
        rss,
    })
}

/// Solves `m·x = b` by Gaussian elimination with partial pivoting: the rows
/// swap only when `|m₁₀| > |m₀₀|`, a pivot below `1e-300` is singular, and
/// a zero elimination factor skips the update.
fn solve_2x2(m: [[f64; 2]; 2], b: [f64; 2]) -> Result<[f64; 2], NumericsError> {
    let [[mut a00, mut a01], [mut a10, mut a11]] = m;
    let [mut x0, mut x1] = b;
    if a10.abs() > a00.abs() {
        std::mem::swap(&mut a00, &mut a10);
        std::mem::swap(&mut a01, &mut a11);
        std::mem::swap(&mut x0, &mut x1);
    }
    if a00.abs() < 1e-300 {
        return Err(NumericsError::SingularMatrix);
    }
    let factor = a10 / a00;
    if factor != 0.0 {
        a11 -= factor * a01;
        x1 -= factor * x0;
    }
    if a11.abs() < 1e-300 {
        return Err(NumericsError::SingularMatrix);
    }
    let x1 = x1 / a11;
    Ok([(x0 - a01 * x1) / a00, x1])
}

/// Fits `y = a·x^k` on strictly positive data via log–log linear regression.
///
/// Used for scaling-law extraction (e.g. solver time-to-solution vs problem
/// size in the §IV experiments). Returns `(k, a, r²)`.
///
/// # Errors
///
/// * Propagates `fit_line` errors.
/// * [`NumericsError::InvalidArgument`] when any point is non-positive.
pub fn fit_scaling_law(xs: &[f64], ys: &[f64]) -> Result<(f64, f64, f64), NumericsError> {
    if xs.iter().chain(ys).any(|&v| !(v > 0.0)) {
        return Err(NumericsError::InvalidArgument {
            what: "scaling-law fit requires strictly positive data",
        });
    }
    let lx: Vec<f64> = xs.iter().map(|x| x.ln()).collect();
    let ly: Vec<f64> = ys.iter().map(|y| y.ln()).collect();
    let line = fit_line(&lx, &ly)?;
    Ok((line.slope, line.intercept.exp(), line.r_squared))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    #[test]
    fn line_fit_exact() {
        let xs = [0.0, 1.0, 2.0, 3.0];
        let ys = [1.0, 3.0, 5.0, 7.0];
        let fit = fit_line(&xs, &ys).unwrap();
        assert!(approx_eq(fit.slope, 2.0, 1e-12));
        assert!(approx_eq(fit.intercept, 1.0, 1e-12));
        assert!(approx_eq(fit.r_squared, 1.0, 1e-12));
    }

    #[test]
    fn line_fit_r_squared_degrades_with_noise() {
        let xs: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs
            .iter()
            .map(|x| 2.0 * x + if *x as usize % 2 == 0 { 20.0 } else { -20.0 })
            .collect();
        let fit = fit_line(&xs, &ys).unwrap();
        assert!(fit.r_squared < 0.99);
        assert!(approx_eq(fit.slope, 2.0, 0.1));
    }

    #[test]
    fn line_fit_rejects_degenerate() {
        assert!(fit_line(&[1.0], &[1.0]).is_err());
        assert!(fit_line(&[2.0, 2.0], &[1.0, 3.0]).is_err());
    }

    #[test]
    fn power_law_recovers_quadratic() {
        let xs: Vec<f64> = (-20..=20)
            .filter(|&i| i != 0)
            .map(|i| i as f64 * 0.05)
            .collect();
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 * x * x + 0.1).collect();
        let fit = fit_power_law_offset(&xs, &ys, 0.5, 5.0).unwrap();
        assert!((fit.exponent - 2.0).abs() < 1e-4, "k={}", fit.exponent);
        assert!(approx_eq(fit.amplitude, 3.0, 1e-3));
        assert!(approx_eq(fit.offset, 0.1, 1e-3));
    }

    #[test]
    fn power_law_recovers_fractional_exponent() {
        let xs: Vec<f64> = (1..=50).map(|i| i as f64 * 0.02).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 1.5 * x.powf(0.8) - 0.3).collect();
        let fit = fit_power_law_offset(&xs, &ys, 0.2, 4.0).unwrap();
        assert!((fit.exponent - 0.8).abs() < 1e-3, "k={}", fit.exponent);
    }

    #[test]
    fn power_law_recovers_steep_exponent() {
        // The paper's strong-coupling regime: k ≈ 3.4.
        let xs: Vec<f64> = (1..=60).map(|i| i as f64 * 0.01).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 0.9 * x.powf(3.4) + 0.02).collect();
        let fit = fit_power_law_offset(&xs, &ys, 1.0, 6.0).unwrap();
        assert!((fit.exponent - 3.4).abs() < 1e-2, "k={}", fit.exponent);
    }

    #[test]
    fn solve_2x2_swaps_rows_and_recovers_the_solution_exactly() {
        // The normal equations of `y = a·b + c` over eight points with
        // b = [0.5; 4] ++ [0; 4]: Σb² = 1 < Σb = 2 takes the row swap.
        let (a, c) = (3.0, 5.0);
        let m = [[1.0, 2.0], [2.0, 8.0]];
        let rhs = [m[0][0] * a + m[0][1] * c, m[1][0] * a + m[1][1] * c];
        assert_eq!(solve_2x2(m, rhs), Ok([a, c]));
    }

    #[test]
    fn power_law_rejects_a_degenerate_design() {
        // Every |x| is 1, so |x|^k is 1 for each k and the normal matrix
        // has two equal rows.
        let xs = [1.0, -1.0, 1.0, -1.0];
        let ys = [0.5, 0.7, 0.9, 1.1];
        assert_eq!(
            fit_power_law_offset(&xs, &ys, 0.5, 4.0),
            Err(NumericsError::SingularMatrix)
        );
    }

    #[test]
    fn power_law_bad_bracket_rejected() {
        let xs = [0.1, 0.2, 0.3];
        let ys = [1.0, 2.0, 3.0];
        assert!(fit_power_law_offset(&xs, &ys, 2.0, 1.0).is_err());
        assert!(fit_power_law_offset(&xs, &ys, -1.0, 1.0).is_err());
    }

    #[test]
    fn scaling_law_recovers_cubic() {
        let xs: Vec<f64> = (1..=20).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 0.5 * x.powi(3)).collect();
        let (k, a, r2) = fit_scaling_law(&xs, &ys).unwrap();
        assert!(approx_eq(k, 3.0, 1e-9));
        assert!(approx_eq(a, 0.5, 1e-9));
        assert!(approx_eq(r2, 1.0, 1e-9));
    }

    #[test]
    fn scaling_law_rejects_nonpositive() {
        assert!(fit_scaling_law(&[1.0, 2.0], &[0.0, 1.0]).is_err());
        assert!(fit_scaling_law(&[-1.0, 2.0], &[1.0, 1.0]).is_err());
    }
}

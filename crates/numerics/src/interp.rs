//! Interpolation over tabulated data.
//!
//! Device models (the VO₂ I–V curve, CMOS energy tables) are specified as
//! sample points; [`Interpolator`] evaluates them continuously. Linear
//! interpolation is the default; monotone cubic (Fritsch–Carlson PCHIP) is
//! available where smooth derivatives matter, e.g. feeding device curves
//! into an ODE right-hand side without introducing artificial kinks.
//!
//! # Example
//!
//! ```
//! use numerics::interp::Interpolator;
//!
//! let interp = Interpolator::linear(&[0.0, 1.0, 2.0], &[0.0, 10.0, 0.0])?;
//! assert_eq!(interp.eval(0.5), 5.0);
//! assert_eq!(interp.eval(1.5), 5.0);
//! // Out-of-range clamps to the boundary values.
//! assert_eq!(interp.eval(-1.0), 0.0);
//! # Ok::<(), numerics::NumericsError>(())
//! ```

use crate::NumericsError;

#[derive(Debug, Clone, PartialEq)]
enum Kind {
    Linear,
    /// Monotone cubic with precomputed endpoint slopes per knot.
    Pchip {
        slopes: Vec<f64>,
    },
}

/// A 1-D interpolator over strictly increasing knots, clamped outside the
/// knot range.
#[derive(Debug, Clone, PartialEq)]
pub struct Interpolator {
    xs: Vec<f64>,
    ys: Vec<f64>,
    kind: Kind,
}

impl Interpolator {
    /// Builds a piecewise-linear interpolator.
    ///
    /// # Errors
    ///
    /// * [`NumericsError::DimensionMismatch`] when `xs` and `ys` differ in
    ///   length.
    /// * [`NumericsError::InsufficientData`] with fewer than 2 knots.
    /// * [`NumericsError::InvalidArgument`] when `xs` is not strictly
    ///   increasing.
    pub fn linear(xs: &[f64], ys: &[f64]) -> Result<Self, NumericsError> {
        Self::validate(xs, ys)?;
        Ok(Interpolator {
            xs: xs.to_vec(),
            ys: ys.to_vec(),
            kind: Kind::Linear,
        })
    }

    /// Builds a monotone cubic (PCHIP / Fritsch–Carlson) interpolator: the
    /// result is C¹ and never overshoots the data.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Interpolator::linear`].
    pub fn pchip(xs: &[f64], ys: &[f64]) -> Result<Self, NumericsError> {
        Self::validate(xs, ys)?;
        let n = xs.len();
        // Secant slopes.
        let d: Vec<f64> = (0..n - 1)
            .map(|i| (ys[i + 1] - ys[i]) / (xs[i + 1] - xs[i]))
            .collect();
        let mut m = vec![0.0; n];
        m[0] = d[0];
        m[n - 1] = d[n - 2];
        for i in 1..n - 1 {
            if d[i - 1] * d[i] <= 0.0 {
                m[i] = 0.0;
            } else {
                // Weighted harmonic mean preserves monotonicity.
                let w1 = 2.0 * (xs[i + 1] - xs[i]) + (xs[i] - xs[i - 1]);
                let w2 = (xs[i + 1] - xs[i]) + 2.0 * (xs[i] - xs[i - 1]);
                m[i] = (w1 + w2) / (w1 / d[i - 1] + w2 / d[i]);
            }
        }
        Ok(Interpolator {
            xs: xs.to_vec(),
            ys: ys.to_vec(),
            kind: Kind::Pchip { slopes: m },
        })
    }

    fn validate(xs: &[f64], ys: &[f64]) -> Result<(), NumericsError> {
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
        // Written as `!(>)` so that a NaN knot fails the check too.
        if xs.windows(2).any(|w| !(w[1] > w[0])) {
            return Err(NumericsError::InvalidArgument {
                what: "interpolation knots must be strictly increasing",
            });
        }
        Ok(())
    }

    /// Evaluates the interpolant at `x`, clamping outside the knot range.
    /// A NaN query evaluates to NaN.
    #[must_use]
    pub fn eval(&self, x: f64) -> f64 {
        let n = self.xs.len();
        if x <= self.xs[0] {
            return self.ys[0];
        }
        if x >= self.xs[n - 1] {
            return self.ys[n - 1];
        }
        if x.is_nan() {
            return x;
        }
        // Binary search for the containing interval.
        let i = match self
            .xs
            .binary_search_by(|probe| probe.partial_cmp(&x).expect("finite knots"))
        {
            Ok(exact) => return self.ys[exact],
            Err(ins) => ins - 1,
        };
        let h = self.xs[i + 1] - self.xs[i];
        let t = (x - self.xs[i]) / h;
        match &self.kind {
            Kind::Linear => self.ys[i] * (1.0 - t) + self.ys[i + 1] * t,
            Kind::Pchip { slopes } => {
                // Cubic Hermite basis.
                let t2 = t * t;
                let t3 = t2 * t;
                let h00 = 2.0 * t3 - 3.0 * t2 + 1.0;
                let h10 = t3 - 2.0 * t2 + t;
                let h01 = -2.0 * t3 + 3.0 * t2;
                let h11 = t3 - t2;
                h00 * self.ys[i]
                    + h10 * h * slopes[i]
                    + h01 * self.ys[i + 1]
                    + h11 * h * slopes[i + 1]
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    #[test]
    fn linear_hits_knots() {
        let interp = Interpolator::linear(&[0.0, 1.0, 3.0], &[2.0, 4.0, -2.0]).unwrap();
        assert_eq!(interp.eval(0.0), 2.0);
        assert_eq!(interp.eval(1.0), 4.0);
        assert_eq!(interp.eval(3.0), -2.0);
    }

    #[test]
    fn linear_midpoints() {
        let interp = Interpolator::linear(&[0.0, 2.0], &[0.0, 10.0]).unwrap();
        assert_eq!(interp.eval(1.0), 5.0);
        assert_eq!(interp.eval(0.5), 2.5);
    }

    #[test]
    fn clamping_outside_domain() {
        let interp = Interpolator::linear(&[0.0, 1.0], &[3.0, 7.0]).unwrap();
        assert_eq!(interp.eval(-5.0), 3.0);
        assert_eq!(interp.eval(99.0), 7.0);
    }

    #[test]
    fn pchip_hits_knots() {
        let xs = [0.0, 1.0, 2.0, 3.0];
        let ys = [0.0, 1.0, 4.0, 9.0];
        let interp = Interpolator::pchip(&xs, &ys).unwrap();
        for (x, y) in xs.iter().zip(&ys) {
            assert!(approx_eq(interp.eval(*x), *y, 1e-12));
        }
    }

    #[test]
    fn pchip_monotone_data_stays_monotone() {
        let xs = [0.0, 1.0, 2.0, 3.0, 4.0];
        let ys = [0.0, 0.1, 0.5, 0.9, 1.0];
        let interp = Interpolator::pchip(&xs, &ys).unwrap();
        let mut prev = interp.eval(0.0);
        for i in 1..=400 {
            let x = i as f64 * 0.01;
            let y = interp.eval(x);
            assert!(y >= prev - 1e-12, "non-monotone at x={x}");
            prev = y;
        }
    }

    #[test]
    fn pchip_does_not_overshoot_plateau() {
        // Flat-then-step data: classic cubic splines overshoot here.
        let xs = [0.0, 1.0, 2.0, 3.0];
        let ys = [0.0, 0.0, 1.0, 1.0];
        let interp = Interpolator::pchip(&xs, &ys).unwrap();
        for i in 0..=300 {
            let y = interp.eval(i as f64 * 0.01);
            assert!((-1e-12..=1.0 + 1e-12).contains(&y), "overshoot: {y}");
        }
    }

    #[test]
    fn rejects_unsorted_knots() {
        assert!(Interpolator::linear(&[0.0, 0.0], &[1.0, 2.0]).is_err());
        assert!(Interpolator::linear(&[1.0, 0.0], &[1.0, 2.0]).is_err());
    }

    #[test]
    fn rejects_a_nan_knot() {
        assert!(Interpolator::linear(&[0.0, f64::NAN, 1.0], &[1.0, 2.0, 3.0]).is_err());
    }

    #[test]
    fn a_nan_query_evaluates_to_nan() {
        let interp = Interpolator::pchip(&[0.0, 1.0, 2.0], &[0.0, 1.0, 4.0]).unwrap();
        assert!(interp.eval(f64::NAN).is_nan());
    }

    #[test]
    fn rejects_mismatched_lengths() {
        assert!(Interpolator::linear(&[0.0, 1.0], &[1.0]).is_err());
    }

    #[test]
    fn rejects_single_knot() {
        assert!(Interpolator::linear(&[0.0], &[1.0]).is_err());
    }
}

//! Shared numerical substrate for the *Rebooting Our Computing Models*
//! reproduction.
//!
//! Every simulator in the workspace (the VO₂ coupled-oscillator engine, the
//! digital-memcomputing ODE solver, and the quantum state-vector simulator)
//! is built on the primitives in this crate:
//!
//! * [`complex`] — complex arithmetic used by the quantum simulator.
//! * [`ode`] — the fixed-step RK4 integrator of the oscillator circuits,
//!   driven through the [`ode::OdeSystem`] trait.
//! * [`signal`] — threshold crossings, period/frequency estimation, duty
//!   cycles, and time-averaged boolean measures (the XOR readout of Fig. 4).
//! * [`stats`] — sample summaries, medians and percentiles.
//! * [`fit`] — least-squares line, scaling-law and power-law exponent fits
//!   (the last extracts the `l_k` norm exponent of Fig. 5).
//! * [`rng`] — deterministic, seedable PRNG helpers shared by experiments.
//! * [`interp`] — linear and monotone-cubic interpolation.
//! * [`hash`] — the one FNV-1a every key, ring point and digest is built on.
//!
//! # Example
//!
//! Integrate the harmonic oscillator with RK4 and check energy conservation:
//!
//! ```
//! use numerics::ode::{OdeSystem, Rk4};
//!
//! struct Harmonic;
//! impl OdeSystem for Harmonic {
//!     fn dim(&self) -> usize { 2 }
//!     fn rhs(&self, _t: f64, y: &[f64], dy: &mut [f64]) {
//!         dy[0] = y[1];
//!         dy[1] = -y[0];
//!     }
//! }
//!
//! let mut rk4 = Rk4::new(1e-3);
//! let mut y = vec![1.0, 0.0];
//! let mut t = 0.0;
//! for _ in 0..1000 {
//!     t = rk4.step(&Harmonic, t, &mut y);
//! }
//! let energy = 0.5 * (y[0] * y[0] + y[1] * y[1]);
//! assert!((energy - 0.5).abs() < 1e-9);
//! ```

// Deliberate style choices for numerical simulation code: `!(x > 0.0)`
// rejects NaN alongside non-positive values, and indexed loops mirror the
// mathematics they implement (state-vector strides, lattice walks).
#![allow(
    clippy::neg_cmp_op_on_partial_ord,
    clippy::needless_range_loop,
    clippy::manual_is_multiple_of,
    clippy::field_reassign_with_default
)]
pub mod complex;
pub mod fit;
pub mod hash;
pub mod interp;
pub mod ode;
pub mod rng;
pub mod signal;
pub mod stats;

pub use complex::Complex;

/// Crate-wide error type for numerical routines.
///
/// Every fallible public function in this crate returns
/// `Result<_, NumericsError>`.
#[derive(Debug, Clone, PartialEq)]
pub enum NumericsError {
    /// Input slices or matrices had incompatible or invalid dimensions.
    DimensionMismatch {
        /// What the routine expected.
        expected: usize,
        /// What it received.
        actual: usize,
    },
    /// A matrix was singular (or numerically singular) during a solve.
    SingularMatrix,
    /// The input data set was empty or too small for the requested operation.
    InsufficientData {
        /// Minimum number of points required.
        required: usize,
        /// Number of points provided.
        provided: usize,
    },
    /// An argument was outside the routine's domain.
    InvalidArgument {
        /// Description of the offending argument.
        what: &'static str,
    },
}

impl std::fmt::Display for NumericsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NumericsError::DimensionMismatch { expected, actual } => {
                write!(f, "dimension mismatch: expected {expected}, got {actual}")
            }
            NumericsError::SingularMatrix => write!(f, "matrix is singular"),
            NumericsError::InsufficientData { required, provided } => {
                write!(f, "insufficient data: need {required}, have {provided}")
            }
            NumericsError::InvalidArgument { what } => {
                write!(f, "invalid argument: {what}")
            }
        }
    }
}

impl std::error::Error for NumericsError {}

/// Returns `true` when two floats agree to within `tol` absolutely *or*
/// relatively (whichever is looser): the comparison of this crate's tests.
#[cfg(test)]
pub(crate) fn approx_eq(a: f64, b: f64, tol: f64) -> bool {
    let diff = (a - b).abs();
    if diff <= tol {
        return true;
    }
    let scale = a.abs().max(b.abs());
    diff <= tol * scale
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn approx_eq_absolute() {
        assert!(approx_eq(0.0, 1e-10, 1e-9));
        assert!(!approx_eq(0.0, 1e-8, 1e-9));
    }

    #[test]
    fn approx_eq_relative() {
        assert!(approx_eq(1e12, 1e12 + 1.0, 1e-9));
        assert!(!approx_eq(1e12, 1.1e12, 1e-9));
    }

    #[test]
    fn error_display_is_nonempty() {
        let errors = [
            NumericsError::DimensionMismatch {
                expected: 3,
                actual: 2,
            },
            NumericsError::SingularMatrix,
            NumericsError::InsufficientData {
                required: 2,
                provided: 0,
            },
            NumericsError::InvalidArgument { what: "n" },
        ];
        for e in errors {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<NumericsError>();
    }
}

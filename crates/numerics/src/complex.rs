//! Complex arithmetic.
//!
//! A small, dependency-free complex number type. The quantum simulator stores
//! state vectors as `Vec<Complex>`, so this type is `Copy` and all
//! operations are branch-free.
//!
//! # Example
//!
//! ```
//! use numerics::Complex;
//!
//! let i = Complex::I;
//! assert_eq!(i * i, Complex::new(-1.0, 0.0));
//! assert!((Complex::from_polar(2.0, std::f64::consts::PI).re + 2.0).abs() < 1e-12);
//! ```

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

/// A complex number `re + i·im` over `f64`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// The additive identity `0 + 0i`.
    pub const ZERO: Complex = Complex { re: 0.0, im: 0.0 };
    /// The multiplicative identity `1 + 0i`.
    pub const ONE: Complex = Complex { re: 1.0, im: 0.0 };
    /// The imaginary unit `0 + 1i`.
    pub const I: Complex = Complex { re: 0.0, im: 1.0 };

    /// Creates a complex number from rectangular components.
    #[must_use]
    pub const fn new(re: f64, im: f64) -> Self {
        Complex { re, im }
    }

    /// Creates a complex number from polar form `r·e^{iθ}`.
    ///
    /// # Example
    ///
    /// ```
    /// use numerics::Complex;
    /// let z = Complex::from_polar(1.0, std::f64::consts::FRAC_PI_2);
    /// assert!((z - Complex::I).norm() < 1e-12);
    /// ```
    #[must_use]
    pub fn from_polar(r: f64, theta: f64) -> Self {
        Complex::new(r * theta.cos(), r * theta.sin())
    }

    /// `e^{iθ}`, a unit-modulus phase factor.
    #[must_use]
    pub fn cis(theta: f64) -> Self {
        Complex::from_polar(1.0, theta)
    }

    /// Complex conjugate `re − i·im`.
    #[must_use]
    pub fn conj(self) -> Self {
        Complex::new(self.re, -self.im)
    }

    /// Squared modulus `re² + im²` — the probability weight of a quantum
    /// amplitude. Cheaper than [`Complex::norm`] (no square root).
    #[must_use]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Modulus `|z|`.
    #[must_use]
    pub fn norm(self) -> f64 {
        self.norm_sqr().sqrt()
    }

    /// Complex exponential `e^z`.
    #[must_use]
    pub fn exp(self) -> Self {
        let r = self.re.exp();
        Complex::from_polar(r, self.im)
    }

    /// Scales by a real factor.
    #[must_use]
    pub fn scale(self, k: f64) -> Self {
        Complex::new(self.re * k, self.im * k)
    }

    /// Returns `true` when both components are finite.
    #[must_use]
    pub fn is_finite(self) -> bool {
        self.re.is_finite() && self.im.is_finite()
    }
}

impl From<f64> for Complex {
    fn from(re: f64) -> Self {
        Complex::new(re, 0.0)
    }
}

impl fmt::Display for Complex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{}+{}i", self.re, self.im)
        } else {
            write!(f, "{}{}i", self.re, self.im)
        }
    }
}

impl Add for Complex {
    type Output = Complex;
    fn add(self, rhs: Complex) -> Complex {
        Complex::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl Sub for Complex {
    type Output = Complex;
    fn sub(self, rhs: Complex) -> Complex {
        Complex::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl Mul for Complex {
    type Output = Complex;
    fn mul(self, rhs: Complex) -> Complex {
        Complex::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl Mul<f64> for Complex {
    type Output = Complex;
    fn mul(self, rhs: f64) -> Complex {
        self.scale(rhs)
    }
}

impl Mul<Complex> for f64 {
    type Output = Complex;
    fn mul(self, rhs: Complex) -> Complex {
        rhs.scale(self)
    }
}

impl Div<f64> for Complex {
    type Output = Complex;
    fn div(self, rhs: f64) -> Complex {
        Complex::new(self.re / rhs, self.im / rhs)
    }
}

impl Neg for Complex {
    type Output = Complex;
    fn neg(self) -> Complex {
        Complex::new(-self.re, -self.im)
    }
}

impl AddAssign for Complex {
    fn add_assign(&mut self, rhs: Complex) {
        *self = *self + rhs;
    }
}

impl SubAssign for Complex {
    fn sub_assign(&mut self, rhs: Complex) {
        *self = *self - rhs;
    }
}

impl MulAssign for Complex {
    fn mul_assign(&mut self, rhs: Complex) {
        *self = *self * rhs;
    }
}

impl Sum for Complex {
    fn sum<I: Iterator<Item = Complex>>(iter: I) -> Complex {
        iter.fold(Complex::ZERO, |a, b| a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    #[test]
    fn basic_arithmetic() {
        let a = Complex::new(1.0, 2.0);
        let b = Complex::new(3.0, -1.0);
        assert_eq!(a + b, Complex::new(4.0, 1.0));
        assert_eq!(a - b, Complex::new(-2.0, 3.0));
        assert_eq!(a * b, Complex::new(5.0, 5.0));
    }

    #[test]
    fn i_squared_is_minus_one() {
        assert_eq!(Complex::I * Complex::I, Complex::new(-1.0, 0.0));
    }

    #[test]
    fn polar_roundtrip() {
        let z = Complex::new(-0.6, 0.8);
        let w = Complex::from_polar(z.norm(), z.im.atan2(z.re));
        assert!((z - w).norm() < 1e-12);
    }

    #[test]
    fn conj_and_norm() {
        let z = Complex::new(3.0, 4.0);
        assert_eq!(z.norm(), 5.0);
        assert_eq!(z.norm_sqr(), 25.0);
        assert_eq!(z.conj(), Complex::new(3.0, -4.0));
        let zz = z * z.conj();
        assert!(approx_eq(zz.re, 25.0, 1e-12));
        assert!(approx_eq(zz.im, 0.0, 1e-12));
    }

    #[test]
    fn exp_of_i_pi() {
        let z = (Complex::I * std::f64::consts::PI).exp();
        assert!((z.re + 1.0).abs() < 1e-12);
        assert!(z.im.abs() < 1e-12);
    }

    #[test]
    fn sum_iterator() {
        let total: Complex = (0..4).map(|k| Complex::new(k as f64, 1.0)).sum();
        assert_eq!(total, Complex::new(6.0, 4.0));
    }

    #[test]
    fn display_format() {
        assert_eq!(Complex::new(1.0, 2.0).to_string(), "1+2i");
        assert_eq!(Complex::new(1.0, -2.0).to_string(), "1-2i");
    }

    #[test]
    fn scalar_multiplication_commutes() {
        let z = Complex::new(1.0, -1.0);
        assert_eq!(z * 2.0, 2.0 * z);
    }
}

//! Physical-quantity newtypes.
//!
//! Electrical simulation code passes around many bare `f64`s whose units are
//! easy to confuse; these zero-cost newtypes make the compiler catch
//! volt/ohm/farad mix-ups at the API boundary ([C-NEWTYPE]). Internal inner
//! loops work on raw `f64` for speed; the newtypes appear on public
//! constructors and results.
//!
//! # Example
//!
//! ```
//! use device::units::Volts;
//!
//! let swing = Volts(1.1) - Volts(0.5);
//! assert!((swing.0 - 0.6).abs() < 1e-12);
//! assert_eq!(Volts(1.5).to_string(), "1.5 V");
//! ```
//!
//! [C-NEWTYPE]: https://rust-lang.github.io/api-guidelines/type-safety.html

use std::fmt;
use std::ops::{Add, Div, Mul, Neg, Sub};

macro_rules! quantity {
    ($(#[$meta:meta])* $name:ident, $suffix:expr) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
        pub struct $name(pub f64);

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{} {}", self.0, $suffix)
            }
        }

        impl Add for $name {
            type Output = $name;
            fn add(self, rhs: $name) -> $name {
                $name(self.0 + rhs.0)
            }
        }

        impl Sub for $name {
            type Output = $name;
            fn sub(self, rhs: $name) -> $name {
                $name(self.0 - rhs.0)
            }
        }

        impl Neg for $name {
            type Output = $name;
            fn neg(self) -> $name {
                $name(-self.0)
            }
        }

        impl Mul<f64> for $name {
            type Output = $name;
            fn mul(self, rhs: f64) -> $name {
                $name(self.0 * rhs)
            }
        }

        impl Mul<$name> for f64 {
            type Output = $name;
            fn mul(self, rhs: $name) -> $name {
                $name(self * rhs.0)
            }
        }

        impl Div<f64> for $name {
            type Output = $name;
            fn div(self, rhs: f64) -> $name {
                $name(self.0 / rhs)
            }
        }
    };
}

quantity!(
    /// Electric potential in volts.
    Volts,
    "V"
);
quantity!(
    /// Resistance in ohms.
    Ohms,
    "Ω"
);
quantity!(
    /// Capacitance in farads.
    Farads,
    "F"
);
quantity!(
    /// Time in seconds.
    Seconds,
    "s"
);
quantity!(
    /// Power in watts.
    Watts,
    "W"
);
quantity!(
    /// Energy in joules.
    Joules,
    "J"
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_on_quantities() {
        assert_eq!(Volts(1.0) + Volts(2.0), Volts(3.0));
        assert_eq!(Volts(5.0) - Volts(2.0), Volts(3.0));
        assert_eq!(-Volts(1.5), Volts(-1.5));
        assert_eq!(Volts(2.0) * 3.0, Volts(6.0));
        assert_eq!(3.0 * Volts(2.0), Volts(6.0));
        assert_eq!(Volts(6.0) / 3.0, Volts(2.0));
    }

    #[test]
    fn display_includes_unit() {
        assert_eq!(Volts(1.5).to_string(), "1.5 V");
        assert_eq!(Watts(0.003).to_string(), "0.003 W");
    }

    #[test]
    fn ordering() {
        assert!(Volts(1.0) < Volts(2.0));
    }
}

//! The RC coupling network.
//!
//! The paper couples two VO₂ oscillators "through simple resistive and
//! capacitive elements" (§III-A): a series resistor `R_C` and capacitor
//! `C_C` between the two oscillation nodes. The coupling strength is set by
//! `R_C` — *decreasing* `R_C` strengthens the coupling, which is how Fig. 5
//! sweeps the realized `l_k` norm exponent.
//!
//! # Example
//!
//! ```
//! use device::passive::CouplingNetwork;
//! use device::units::{Farads, Ohms};
//!
//! let coupling = CouplingNetwork::new(Ohms(600e3), Farads(15e-15))?;
//! assert_eq!(coupling.r_c(), Ohms(600e3));
//! assert!(CouplingNetwork::new(Ohms(0.0), Farads(15e-15)).is_err());
//! # Ok::<(), device::DeviceError>(())
//! ```

use crate::units::{Farads, Ohms};
use crate::DeviceError;

/// The series-RC coupling element between two oscillator nodes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CouplingNetwork {
    r_c: Ohms,
    c_c: Farads,
}

impl CouplingNetwork {
    /// Creates a coupling network with series resistance `r_c` and
    /// capacitance `c_c`.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::InvalidParameter`] when either element is
    /// non-positive.
    pub fn new(r_c: Ohms, c_c: Farads) -> Result<Self, DeviceError> {
        if !(r_c.0 > 0.0) {
            return Err(DeviceError::InvalidParameter {
                name: "r_c",
                reason: "coupling resistance must be positive",
            });
        }
        if !(c_c.0 > 0.0) {
            return Err(DeviceError::InvalidParameter {
                name: "c_c",
                reason: "coupling capacitance must be positive",
            });
        }
        Ok(CouplingNetwork { r_c, c_c })
    }

    /// Coupling resistance `R_C`.
    #[must_use]
    pub fn r_c(&self) -> Ohms {
        self.r_c
    }

    /// Coupling capacitance `C_C`.
    #[must_use]
    pub fn c_c(&self) -> Farads {
        self.c_c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coupling_rejects_bad_elements() {
        assert!(CouplingNetwork::new(Ohms(0.0), Farads(1e-12)).is_err());
        assert!(CouplingNetwork::new(Ohms(1e3), Farads(0.0)).is_err());
    }
}

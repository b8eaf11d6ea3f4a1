//! Square-law MOSFET model.
//!
//! In the paper's 1T1R oscillator cell (§III-A) the series resistor is
//! replaced by an NMOS transistor so the oscillation frequency can be tuned
//! through the gate voltage `V_gs`: the transistor's channel resistance sets
//! the capacitor charge/discharge rate. Input values of the oscillator
//! computing model are *encoded as gate voltages* — so this model is the
//! input DAC of the whole §III computing scheme.
//!
//! The oscillator fabric needs only the long-channel square law's deep-triode
//! limit, where the transistor behaves as a voltage-controlled resistor.
//!
//! # Example
//!
//! ```
//! use device::mosfet::{Mosfet, MosfetParams};
//! use device::units::Volts;
//!
//! let fet = Mosfet::new(MosfetParams::default())?;
//! let r1 = fet.effective_resistance(Volts(1.0));
//! let r2 = fet.effective_resistance(Volts(1.5));
//! assert!(r2.0 < r1.0, "higher overdrive → lower channel resistance");
//! # Ok::<(), device::DeviceError>(())
//! ```

use crate::units::{Ohms, Volts};
use crate::DeviceError;

/// Long-channel square-law parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MosfetParams {
    /// Transconductance factor `k = μ·Cox·W/L` in A/V².
    pub k: f64,
    /// Threshold voltage.
    pub v_th: Volts,
}

impl Default for MosfetParams {
    fn default() -> Self {
        MosfetParams {
            k: 200e-6,
            v_th: Volts(0.4),
        }
    }
}

impl MosfetParams {
    /// Validates the parameter set.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::InvalidParameter`] when `k <= 0`.
    pub fn validate(&self) -> Result<(), DeviceError> {
        if !(self.k > 0.0) {
            return Err(DeviceError::InvalidParameter {
                name: "k",
                reason: "transconductance factor must be positive",
            });
        }
        Ok(())
    }
}

/// An NMOS transistor evaluated with the square law.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mosfet {
    params: MosfetParams,
}

impl Mosfet {
    /// Creates a transistor.
    ///
    /// # Errors
    ///
    /// Returns the validation error from [`MosfetParams::validate`].
    pub fn new(params: MosfetParams) -> Result<Self, DeviceError> {
        params.validate()?;
        Ok(Mosfet { params })
    }

    /// The device parameters.
    #[must_use]
    pub fn params(&self) -> &MosfetParams {
        &self.params
    }

    /// Small-signal channel resistance around `V_ds ≈ 0` (deep triode):
    /// `R_ch = 1 / (k · (V_gs − V_th))`.
    ///
    /// This is the voltage-controlled series resistance of the oscillator
    /// cell. In cutoff the resistance is effectively infinite; this returns
    /// `Ohms(f64::INFINITY)` there so callers can propagate it safely.
    #[must_use]
    pub fn effective_resistance(&self, v_gs: Volts) -> Ohms {
        let vov = v_gs.0 - self.params.v_th.0;
        if vov <= 0.0 {
            return Ohms(f64::INFINITY);
        }
        Ohms(1.0 / (self.params.k * vov))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fet() -> Mosfet {
        Mosfet::new(MosfetParams::default()).unwrap()
    }

    #[test]
    fn triode_resistance_decreases_with_vgs() {
        let f = fet();
        let r1 = f.effective_resistance(Volts(0.8));
        let r2 = f.effective_resistance(Volts(1.2));
        assert!(r2.0 < r1.0);
    }

    #[test]
    fn cutoff_resistance_infinite() {
        let f = fet();
        assert!(f.effective_resistance(Volts(0.3)).0.is_infinite());
    }

    #[test]
    fn invalid_params_rejected() {
        let mut p = MosfetParams::default();
        p.k = 0.0;
        assert!(Mosfet::new(p).is_err());
    }
}

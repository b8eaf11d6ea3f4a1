//! Vanadium-dioxide (VO₂) insulator-to-metal-transition device model.
//!
//! VO₂ undergoes a volatile, sharp insulator-to-metal phase transition (IMT)
//! under electrical bias (paper §III-A). The compact model used here is the
//! standard one from the coupled-oscillator literature (Shukla et al., IEDM
//! 2014; Parihar et al., Sci. Rep. 2017):
//!
//! * two resistance states, insulating `R_ins` and metallic `R_met`
//!   (`R_ins ≫ R_met`);
//! * hysteretic switching: the device turns metallic when the voltage across
//!   it rises above `v_imt`, and returns to insulating only when the voltage
//!   falls below `v_mit < v_imt`;
//! * a finite phase-transition time constant `tau_switch` that smooths the
//!   conductance between the two states (the metallic fraction relaxes
//!   exponentially toward its target), keeping the ODE right-hand side
//!   Lipschitz.
//!
//! When such a device is loaded by a series resistance chosen so the load
//! line crosses the unstable hysteretic region, the circuit has no stable
//! operating point and relaxation-oscillates — that is the oscillator
//! primitive of the paper's computing model (built in the `osc` crate).
//!
//! # Example
//!
//! ```
//! use device::units::{Ohms, Volts};
//! use device::vo2::{oscillation_condition, Vo2Params};
//!
//! let params = Vo2Params::default();
//! assert!((params.hysteresis_window().0 - 0.6).abs() < 1e-12);
//! // A mid-range series resistance puts the load line in the unstable
//! // window; a tiny one latches the device metallic.
//! assert!(oscillation_condition(&params, Volts(3.0), Ohms(300e3)));
//! assert!(!oscillation_condition(&params, Volts(3.0), Ohms(1e3)));
//! ```

use crate::units::{Ohms, Seconds, Volts};
use crate::DeviceError;

/// Parameters of the hysteretic VO₂ compact model.
///
/// The defaults are representative of the VO₂ devices in the coupled-
/// oscillator literature: a ~10:1 resistance ratio and a switching window
/// around 1 V, giving oscillation frequencies in the hundreds of kHz with
/// ~100 fF node capacitance and ~10–100 kΩ series resistances.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Vo2Params {
    /// Insulating-state resistance.
    pub r_insulating: Ohms,
    /// Metallic-state resistance.
    pub r_metallic: Ohms,
    /// Insulator→metal switching threshold (device voltage rising).
    pub v_imt: Volts,
    /// Metal→insulator hold threshold (device voltage falling).
    pub v_mit: Volts,
    /// Phase-transition time constant for conductance relaxation.
    pub tau_switch: Seconds,
}

impl Default for Vo2Params {
    fn default() -> Self {
        Vo2Params {
            r_insulating: Ohms(1e6),
            r_metallic: Ohms(50e3),
            v_imt: Volts(1.1),
            v_mit: Volts(0.5),
            tau_switch: Seconds(20e-9),
        }
    }
}

impl Vo2Params {
    /// Validates the parameter set.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::InvalidParameter`] when resistances are not
    /// positive, `r_metallic >= r_insulating`, the thresholds are disordered
    /// (`v_mit >= v_imt`), or `tau_switch` is negative.
    pub fn validate(&self) -> Result<(), DeviceError> {
        if !(self.r_insulating.0 > 0.0) {
            return Err(DeviceError::InvalidParameter {
                name: "r_insulating",
                reason: "must be positive",
            });
        }
        if !(self.r_metallic.0 > 0.0) {
            return Err(DeviceError::InvalidParameter {
                name: "r_metallic",
                reason: "must be positive",
            });
        }
        if self.r_metallic.0 >= self.r_insulating.0 {
            return Err(DeviceError::InvalidParameter {
                name: "r_metallic",
                reason: "must be smaller than r_insulating",
            });
        }
        if !(self.v_imt.0 > self.v_mit.0) {
            return Err(DeviceError::InvalidParameter {
                name: "v_mit",
                reason: "hold threshold must be below the IMT threshold",
            });
        }
        if self.tau_switch.0 < 0.0 {
            return Err(DeviceError::InvalidParameter {
                name: "tau_switch",
                reason: "must be non-negative",
            });
        }
        Ok(())
    }

    /// Width of the hysteresis window `v_imt − v_mit`.
    #[must_use]
    pub fn hysteresis_window(&self) -> Volts {
        self.v_imt - self.v_mit
    }
}

/// Checks whether a supply/series-resistance choice places the load line in
/// the unstable region of the hysteresis, which is the condition for
/// self-sustained relaxation oscillation (paper §III-A).
///
/// Concretely: the insulating-state steady voltage must exceed `v_imt` (the
/// device keeps switching on) and the metallic-state steady voltage must fall
/// below `v_mit` (it keeps switching off).
#[must_use]
pub fn oscillation_condition(params: &Vo2Params, vdd: Volts, r_series: Ohms) -> bool {
    let div = |r_dev: f64| vdd.0 * r_dev / (r_dev + r_series.0);
    let v_ins = div(params.r_insulating.0);
    let v_met = div(params.r_metallic.0);
    v_ins > params.v_imt.0 && v_met < params.v_mit.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_params_valid() {
        assert!(Vo2Params::default().validate().is_ok());
    }

    #[test]
    fn invalid_params_rejected() {
        let mut p = Vo2Params::default();
        p.r_metallic = Ohms(-1.0);
        assert!(p.validate().is_err());

        let mut p = Vo2Params::default();
        p.r_metallic = p.r_insulating;
        assert!(p.validate().is_err());

        let mut p = Vo2Params::default();
        p.v_mit = Volts(2.0);
        assert!(p.validate().is_err());
    }

    #[test]
    fn oscillation_condition_window() {
        let p = Vo2Params::default();
        let vdd = Volts(3.0);
        // A mid-range series resistance oscillates…
        assert!(oscillation_condition(&p, vdd, Ohms(300e3)));
        // …a tiny one latches metallic (v_met too high)…
        assert!(!oscillation_condition(&p, vdd, Ohms(1e3)));
        // …a huge one latches insulating (v_ins too low).
        assert!(!oscillation_condition(&p, vdd, Ohms(100e6)));
    }

    #[test]
    fn hysteresis_window_width() {
        let p = Vo2Params::default();
        assert!((p.hysteresis_window().0 - 0.6).abs() < 1e-12);
    }
}

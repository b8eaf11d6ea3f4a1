//! Compact device and energy models for the *Rebooting Our Computing Models*
//! reproduction.
//!
//! The paper's §III builds its oscillator computing fabric from three
//! physical ingredients, each modelled here:
//!
//! * [`vo2`] — the vanadium-dioxide insulator-to-metal-transition (IMT)
//!   device: a two-state resistor with a hysteretic switching window, which
//!   produces relaxation oscillations when loaded by a series resistance.
//! * [`mosfet`] — a square-law NMOS transistor used as the tunable series
//!   resistance of the 1T1R oscillator cell (the gate voltage `V_gs` is the
//!   *input encoding* of the oscillator computing model).
//! * [`passive`] — the RC coupling network that links two oscillators.
//!
//! Two more modules support the paper's comparisons:
//!
//! * [`cmos`] — a per-operation energy/power model of a conventional CMOS
//!   implementation at a 32 nm-like node, used for the paper's
//!   "0.936 mW vs 3 mW" corner-detection comparison.
//! * [`noise`] — seeded Gaussian noise sources for the robustness
//!   experiments of §IV.
//!
//! Physical quantities use the newtypes in [`units`] so a conductance can
//! never be passed where a capacitance is expected.
//!
//! # Example
//!
//! ```
//! use device::mosfet::{Mosfet, MosfetParams};
//! use device::units::Volts;
//! use device::vo2::{oscillation_condition, Vo2Params};
//!
//! // The input encoding: a gate voltage sets the cell's series resistance,
//! // and the cell oscillates when that resistance lands in the VO₂ window.
//! let fet = Mosfet::new(MosfetParams::default())?;
//! let r_series = fet.effective_resistance(Volts(0.415));
//! assert!(oscillation_condition(&Vo2Params::default(), Volts(3.0), r_series));
//! # Ok::<(), device::DeviceError>(())
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
pub mod cmos;
pub mod mosfet;
pub mod noise;
pub mod passive;
pub mod units;
pub mod vo2;

/// Crate-wide error type for device-model construction and evaluation.
#[derive(Debug, Clone, PartialEq)]
pub enum DeviceError {
    /// A physical parameter was out of its admissible range.
    InvalidParameter {
        /// Which parameter.
        name: &'static str,
        /// Why it was rejected.
        reason: &'static str,
    },
}

impl std::fmt::Display for DeviceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeviceError::InvalidParameter { name, reason } => {
                write!(f, "invalid parameter `{name}`: {reason}")
            }
        }
    }
}

impl std::error::Error for DeviceError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        let e = DeviceError::InvalidParameter {
            name: "r_on",
            reason: "must be positive",
        };
        assert!(e.to_string().contains("r_on"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<DeviceError>();
    }
}

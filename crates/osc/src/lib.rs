//! Coupled VO₂ relaxation-oscillator computing (paper §III).
//!
//! This crate reproduces the paper's "intrinsic computing using weakly
//! coupled oscillators" stack, bottom-up:
//!
//! * [`relaxation`] — a single 1T1R VO₂ relaxation oscillator: a hysteretic
//!   IMT device loaded by a gate-voltage-tunable MOSFET channel resistance,
//!   integrated as an ODE. The oscillation frequency is the analog encoding
//!   of an input value (`V_gs`).
//! * [`pair`] — two oscillators coupled through a series-RC network
//!   ([`device::passive::CouplingNetwork`]); exhibits frequency locking
//!   (paper Fig. 3) with a phase difference governed by the detuning
//!   `ΔV_gs` and the coupling strength.
//! * [`locking`] — sweep utilities that measure locking ranges.
//! * [`readout`] — the thresholded, time-averaged XOR readout of Fig. 4.
//! * [`norms`] — the XOR measure as a function of `ΔV_gs` realizes tunable
//!   `l_k` distance norms (Fig. 5); this module sweeps and fits `k`, and
//!   packages the pair + readout as an [`norms::OscillatorDistance`]
//!   primitive for the vision workload.
//! * [`network`] — `N` cells coupled along an arbitrary edge list, read out
//!   as relative phases.
//! * [`coloring`] — vertex colouring by rounding those phases into sectors.
//! * [`power`] — supply-current power accounting of the oscillator block,
//!   the paper's 0.936 mW side of the CMOS comparison.
//!
//! # Example
//!
//! Build a coupled pair, simulate it, and check that it frequency-locks:
//!
//! ```
//! use osc::pair::{CoupledPair, PairConfig};
//! use device::units::Volts;
//!
//! let config = PairConfig::default();
//! let pair = CoupledPair::new(config, Volts(0.62), Volts(0.63))?;
//! let run = pair.simulate_default()?;
//! let f1 = run.frequency(0)?;
//! let f2 = run.frequency(1)?;
//! assert!((f1 - f2).abs() / f1 < 0.01, "pair should lock: {f1} vs {f2}");
//! # Ok::<(), osc::OscError>(())
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
pub mod coloring;
pub mod locking;
pub mod network;
pub mod norms;
pub mod pair;
pub mod power;
pub mod readout;
pub mod relaxation;

/// Crate-wide error type.
#[derive(Debug, Clone, PartialEq)]
pub enum OscError {
    /// A circuit parameter was rejected by a device model.
    Device(device::DeviceError),
    /// A numerical routine failed.
    Numerics(numerics::NumericsError),
    /// The chosen bias point cannot oscillate (load line misses the
    /// hysteretic window).
    NoOscillation {
        /// The offending series resistance in ohms.
        r_series_ohms: f64,
    },
    /// The simulated waveform did not contain enough cycles for the
    /// requested analysis.
    TooFewCycles {
        /// Cycles found.
        found: usize,
        /// Cycles required.
        required: usize,
    },
    /// An index referred to a nonexistent oscillator.
    BadIndex {
        /// The index supplied.
        index: usize,
        /// Number of oscillators available.
        len: usize,
    },
}

impl std::fmt::Display for OscError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OscError::Device(e) => write!(f, "device error: {e}"),
            OscError::Numerics(e) => write!(f, "numerics error: {e}"),
            OscError::NoOscillation { r_series_ohms } => write!(
                f,
                "bias point with series resistance {r_series_ohms} Ω cannot oscillate"
            ),
            OscError::TooFewCycles { found, required } => {
                write!(f, "waveform has {found} cycles, need {required}")
            }
            OscError::BadIndex { index, len } => {
                write!(f, "oscillator index {index} out of range (len {len})")
            }
        }
    }
}

impl std::error::Error for OscError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            OscError::Device(e) => Some(e),
            OscError::Numerics(e) => Some(e),
            _ => None,
        }
    }
}

impl From<device::DeviceError> for OscError {
    fn from(e: device::DeviceError) -> Self {
        OscError::Device(e)
    }
}

impl From<numerics::NumericsError> for OscError {
    fn from(e: numerics::NumericsError) -> Self {
        OscError::Numerics(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_nonempty() {
        let errors = [
            OscError::NoOscillation { r_series_ohms: 1e3 },
            OscError::TooFewCycles {
                found: 1,
                required: 4,
            },
            OscError::BadIndex { index: 5, len: 2 },
        ];
        for e in errors {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn error_from_device() {
        let de = device::DeviceError::InvalidParameter {
            name: "x",
            reason: "y",
        };
        let oe: OscError = de.into();
        assert!(matches!(oe, OscError::Device(_)));
        assert!(std::error::Error::source(&oe).is_some());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<OscError>();
    }
}

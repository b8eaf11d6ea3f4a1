//! An RC-coupled pair of VO₂ relaxation oscillators.
//!
//! Two [`crate::relaxation`] cells whose oscillation nodes are joined by a
//! series R–C branch (paper §III-A, Fig. 3). The coupled system's state is
//!
//! ```text
//! [v₁, f₁, m₁,  v₂, f₂, m₂,  v_c]
//! ```
//!
//! with the branch current `i_c = (v₁ − v₂ − v_c)/R_C` leaving node 1,
//! entering node 2, and charging the coupling capacitor
//! (`dv_c/dt = i_c / C_C`).
//!
//! When the two uncoupled frequencies are close enough, the branch enforces
//! *frequency locking*; the residual phase difference between the locked
//! waveforms encodes `ΔV_gs = V_gs1 − V_gs2`, which is what the XOR readout
//! ([`crate::readout`]) converts into a distance measure.
//!
//! # Example
//!
//! ```
//! use osc::pair::{CoupledPair, PairConfig};
//! use device::units::Volts;
//!
//! let pair = CoupledPair::new(PairConfig::default(), Volts(0.60), Volts(0.61))?;
//! let run = pair.simulate_default()?;
//! assert!(run.frequency(0)? > 1e6);
//! # Ok::<(), osc::OscError>(())
//! ```

use crate::relaxation::{
    oscillator_project, oscillator_rhs, OscRun, OscillatorParams, SimConfig, STATE_VARS,
};
use crate::OscError;
use device::passive::CouplingNetwork;
use device::units::{Farads, Ohms, Volts};
use numerics::ode::OdeSystem;
use numerics::signal;

/// Configuration of a coupled pair: shared cell parameters + coupling
/// network.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairConfig {
    /// Oscillator cell parameters (shared by both cells).
    pub osc: OscillatorParams,
    /// The series-RC coupling branch.
    pub coupling: CouplingNetwork,
    /// Simulation settings used by [`CoupledPair::simulate_default`].
    pub sim: SimConfig,
}

impl Default for PairConfig {
    fn default() -> Self {
        PairConfig {
            osc: OscillatorParams::default(),
            coupling: CouplingNetwork::new(Ohms(600e3), Farads(15e-15))
                .expect("default coupling is valid"),
            sim: SimConfig::default(),
        }
    }
}

/// A ready-to-simulate coupled pair with its two input gate voltages.
#[derive(Debug, Clone, PartialEq)]
pub struct CoupledPair {
    config: PairConfig,
    /// Cell-2 parameters; equal to `config.osc` unless constructed with
    /// [`CoupledPair::with_mismatch`].
    osc2: OscillatorParams,
    r1: f64,
    r2: f64,
    v_gs: (Volts, Volts),
}

impl CoupledPair {
    /// Creates a coupled pair with inputs encoded as gate voltages.
    ///
    /// # Errors
    ///
    /// Propagates bias-point validation: each cell individually must
    /// oscillate ([`OscError::NoOscillation`] otherwise).
    pub fn new(config: PairConfig, v_gs1: Volts, v_gs2: Volts) -> Result<Self, OscError> {
        Self::with_mismatch(config, v_gs1, v_gs2, config.osc)
    }

    /// Creates a pair whose second cell uses different device parameters —
    /// the device-to-device variation any real oscillator fabric suffers.
    ///
    /// # Errors
    ///
    /// Propagates bias-point validation for both cells.
    pub(crate) fn with_mismatch(
        config: PairConfig,
        v_gs1: Volts,
        v_gs2: Volts,
        osc2: OscillatorParams,
    ) -> Result<Self, OscError> {
        let r1 = config.osc.checked_bias(v_gs1)?;
        let r2 = osc2.checked_bias(v_gs2)?;
        Ok(CoupledPair {
            config,
            osc2,
            r1: r1.0,
            r2: r2.0,
            v_gs: (v_gs1, v_gs2),
        })
    }

    /// The configuration.
    #[must_use]
    pub(crate) fn config(&self) -> &PairConfig {
        &self.config
    }

    /// The two input gate voltages.
    #[must_use]
    pub(crate) fn inputs(&self) -> (Volts, Volts) {
        self.v_gs
    }

    /// Simulates the coupled dynamics.
    ///
    /// The two cells start from deliberately *different* initial node
    /// voltages (0 and a mid-window value) so in-phase symmetry is broken
    /// and the pair settles into its natural locked phase relation.
    ///
    /// # Errors
    ///
    /// Kept fallible for interface parity; currently always succeeds.
    pub(crate) fn simulate(&self, config: SimConfig) -> Result<PairRun, OscError> {
        let mut y = vec![0.0; self.dim()];
        // Symmetry breaking: start osc 2 mid-window.
        y[STATE_VARS] = self.config.osc.readout_threshold().0;
        let run = OscRun::record(self, &mut y, config, 2, self.config.osc.readout_threshold());
        Ok(PairRun { run })
    }

    /// Simulates with the configuration's own [`SimConfig`].
    ///
    /// # Errors
    ///
    /// See `CoupledPair::simulate`.
    pub fn simulate_default(&self) -> Result<PairRun, OscError> {
        self.simulate(self.config.sim)
    }
}

impl OdeSystem for CoupledPair {
    fn dim(&self) -> usize {
        2 * STATE_VARS + 1
    }

    fn rhs(&self, _t: f64, y: &[f64], dy: &mut [f64]) {
        let v1 = y[0];
        let v2 = y[STATE_VARS];
        let vc = y[2 * STATE_VARS];
        let i_c = (v1 - v2 - vc) / self.config.coupling.r_c().0;
        oscillator_rhs(
            &self.config.osc,
            self.r1,
            &y[..STATE_VARS],
            &mut dy[..STATE_VARS],
            i_c,
        );
        oscillator_rhs(
            &self.osc2,
            self.r2,
            &y[STATE_VARS..2 * STATE_VARS],
            &mut dy[STATE_VARS..2 * STATE_VARS],
            -i_c,
        );
        dy[2 * STATE_VARS] = i_c / self.config.coupling.c_c().0;
    }

    fn project(&self, y: &mut [f64]) {
        oscillator_project(&self.config.osc, &mut y[..STATE_VARS]);
        oscillator_project(&self.osc2, &mut y[STATE_VARS..2 * STATE_VARS]);
    }
}

/// The recorded waveforms of a coupled-pair run.
#[derive(Debug, Clone, PartialEq)]
pub struct PairRun {
    run: OscRun,
}

impl PairRun {
    /// The underlying two-channel [`OscRun`].
    #[must_use]
    pub(crate) fn as_run(&self) -> &OscRun {
        &self.run
    }

    /// The waveform of oscillator `index ∈ {0, 1}`.
    ///
    /// # Errors
    ///
    /// Returns [`OscError::BadIndex`] when out of range.
    pub(crate) fn waveform(&self, index: usize) -> Result<&[f64], OscError> {
        self.run.waveform(index)
    }

    /// Frequency of oscillator `index`.
    ///
    /// # Errors
    ///
    /// See [`OscRun::frequency`].
    pub fn frequency(&self, index: usize) -> Result<f64, OscError> {
        self.run.frequency(index)
    }

    /// Relative frequency mismatch `|f₁ − f₂| / f₁` of the recorded run.
    ///
    /// # Errors
    ///
    /// Propagates frequency-estimation errors.
    pub(crate) fn frequency_mismatch(&self) -> Result<f64, OscError> {
        let f1 = self.frequency(0)?;
        let f2 = self.frequency(1)?;
        Ok(((f1 - f2) / f1).abs())
    }

    /// Whether the pair is frequency locked to within `rel_tol`.
    ///
    /// # Errors
    ///
    /// Propagates frequency-estimation errors.
    pub fn is_locked(&self, rel_tol: f64) -> Result<bool, OscError> {
        Ok(self.frequency_mismatch()? <= rel_tol)
    }

    /// Mean phase difference of the locked pair, radians in `[0, 2π)`.
    ///
    /// # Errors
    ///
    /// Propagates [`numerics::signal::phase_difference`] errors.
    pub(crate) fn phase_difference(&self) -> Result<f64, OscError> {
        let a = self.run.waveform(0)?;
        let b = self.run.waveform(1)?;
        Ok(signal::phase_difference(
            a,
            b,
            self.run.dt().0,
            self.run.threshold().0,
        )?)
    }

    /// The Fig. 4 XOR measure `1 − Avg(XOR)` of the two waveforms.
    ///
    /// # Errors
    ///
    /// Propagates [`numerics::signal::xor_measure`] errors.
    pub fn xor_measure(&self) -> Result<f64, OscError> {
        let a = self.run.waveform(0)?;
        let b = self.run.waveform(1)?;
        Ok(signal::xor_measure(a, b, self.run.threshold().0)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair(v1: f64, v2: f64) -> CoupledPair {
        CoupledPair::new(PairConfig::default(), Volts(v1), Volts(v2)).unwrap()
    }

    #[test]
    fn pair_waveforms_equal_whole_state_sampling_bit_for_bit() {
        let pair = pair(0.60, 0.61);
        let mut start = vec![0.0; pair.dim()];
        start[STATE_VARS] = pair.config.osc.readout_threshold().0;
        let run = pair.simulate_default().unwrap();
        crate::relaxation::tests::assert_same_waveforms(
            &pair,
            start,
            pair.config.sim,
            run.as_run(),
        );
    }

    #[test]
    fn identical_inputs_lock() {
        let run = pair(0.62, 0.62).simulate_default().unwrap();
        assert!(run.is_locked(0.01).unwrap(), "identical pair must lock");
    }

    #[test]
    fn small_detuning_locks() {
        let run = pair(0.62, 0.63).simulate_default().unwrap();
        assert!(
            run.is_locked(0.02).unwrap(),
            "mismatch {}",
            run.frequency_mismatch().unwrap()
        );
    }

    #[test]
    fn both_oscillators_run() {
        let run = pair(0.6, 0.62).simulate_default().unwrap();
        for i in 0..2 {
            let crossings =
                signal::rising_crossings(run.waveform(i).unwrap(), run.run.threshold().0);
            assert!(
                crossings.len() > 5,
                "oscillator {i}: {} crossings",
                crossings.len()
            );
        }
    }

    #[test]
    fn xor_measure_in_unit_interval() {
        let run = pair(0.6, 0.64).simulate_default().unwrap();
        let m = run.xor_measure().unwrap();
        assert!((0.0..=1.0).contains(&m), "measure {m}");
    }

    #[test]
    fn xor_measure_grows_with_detuning_near_zero() {
        // The Fig. 5 minimum at ΔV_gs = 0: larger detuning → larger measure.
        let base = pair(0.62, 0.62)
            .simulate_default()
            .unwrap()
            .xor_measure()
            .unwrap();
        let detuned = pair(0.62, 0.65)
            .simulate_default()
            .unwrap()
            .xor_measure()
            .unwrap();
        assert!(
            detuned > base,
            "measure should grow with |ΔV_gs|: {base} vs {detuned}"
        );
    }

    #[test]
    fn invalid_bias_rejected() {
        assert!(CoupledPair::new(PairConfig::default(), Volts(0.62), Volts(3.0)).is_err());
    }

    #[test]
    fn deterministic() {
        let a = pair(0.6, 0.61).simulate_default().unwrap();
        let b = pair(0.6, 0.61).simulate_default().unwrap();
        assert_eq!(a.waveform(0).unwrap(), b.waveform(0).unwrap());
        assert_eq!(a.waveform(1).unwrap(), b.waveform(1).unwrap());
    }

    #[test]
    fn mismatched_devices_still_lock_when_close() {
        use device::units::Ohms;
        let cfg = PairConfig::default();
        let mut osc2 = cfg.osc;
        // 3% spread on the insulating resistance.
        osc2.vo2.r_insulating = Ohms(cfg.osc.vo2.r_insulating.0 * 1.03);
        let run = CoupledPair::with_mismatch(cfg, Volts(0.62), Volts(0.62), osc2)
            .unwrap()
            .simulate_default()
            .unwrap();
        assert!(
            run.is_locked(0.01).unwrap(),
            "mismatch {}",
            run.frequency_mismatch().unwrap()
        );
    }

    #[test]
    fn grossly_mismatched_devices_unlock() {
        use device::units::Ohms;
        let cfg = PairConfig::default();
        let mut osc2 = cfg.osc;
        osc2.vo2.r_insulating = Ohms(cfg.osc.vo2.r_insulating.0 * 2.0);
        osc2.vo2.r_metallic = Ohms(cfg.osc.vo2.r_metallic.0 * 2.0);
        let run = CoupledPair::with_mismatch(cfg, Volts(0.62), Volts(0.62), osc2)
            .unwrap()
            .simulate_default()
            .unwrap();
        assert!(
            !run.is_locked(0.005).unwrap(),
            "mismatch {}",
            run.frequency_mismatch().unwrap()
        );
    }

    #[test]
    fn phase_difference_is_finite_and_wrapped() {
        let run = pair(0.61, 0.62).simulate_default().unwrap();
        let dphi = run.phase_difference().unwrap();
        assert!((0.0..std::f64::consts::TAU).contains(&dphi));
    }
}

//! Single 1T1R VO₂ relaxation oscillator.
//!
//! The cell (paper §III-A, Fig. 3 inset): a VO₂ IMT device from the
//! oscillation node to ground, a node capacitance `C`, and a series NMOS
//! from `V_DD` whose channel resistance — set by the gate voltage `V_gs` —
//! controls the charge rate and therefore the oscillation frequency. When
//! the load line crosses the hysteretic window the node voltage relaxes
//! back and forth between the two switching thresholds forever.
//!
//! The dynamics integrated here:
//!
//! ```text
//! C·dv/dt = (V_DD − v)/R_s(V_gs) − v·G_vo2(f)
//! df/dt   = (m − f)/τ_switch          (metallic fraction relaxation)
//! m       ∈ {0, 1}  — hysteresis comparator updated after every step
//! ```
//!
//! Every simulator of this crate — the single cell here, the coupled pair,
//! the chain and the graph — integrates with the generic fixed-step
//! [`numerics::ode::Rk4`] and records through [`OscRun`]'s one sampling
//! path: an observer that copies each cell's node voltage out of the state
//! after every step, so a run allocates its waveforms and nothing per step.
//!
//! # Example
//!
//! ```
//! use osc::relaxation::{OscillatorParams, SimConfig, SingleOscillator};
//! use device::units::Volts;
//!
//! let params = OscillatorParams::default();
//! let osc = SingleOscillator::new(params, Volts(0.62))?;
//! let run = osc.simulate(SimConfig::default())?;
//! let f = run.frequency(0)?;
//! assert!(f > 1e6, "should oscillate in the MHz range, got {f}");
//! # Ok::<(), osc::OscError>(())
//! ```

use crate::OscError;
use device::mosfet::{Mosfet, MosfetParams};
use device::units::{Farads, Ohms, Seconds, Volts};
use device::vo2::{oscillation_condition, Vo2Params};
use numerics::ode::{integrate_observed, OdeSystem, Rk4};
use numerics::signal;

/// Per-oscillator state layout inside ODE state vectors.
///
/// Each oscillator occupies [`STATE_VARS`] consecutive slots:
/// `[v, f, m]` — node voltage, metallic fraction, discrete phase (0/1).
pub(crate) const STATE_VARS: usize = 3;

/// Circuit parameters shared by every oscillator in a fabric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OscillatorParams {
    /// VO₂ device parameters.
    pub vo2: Vo2Params,
    /// Series-transistor parameters.
    pub mosfet: MosfetParams,
    /// Supply voltage.
    pub vdd: Volts,
    /// Node capacitance.
    pub c_node: Farads,
}

impl Default for OscillatorParams {
    fn default() -> Self {
        let mut vo2 = Vo2Params::default();
        // Faster phase transition than the device-crate default so the IMT
        // lag stays subordinate to the RC time constants (tens of ns).
        vo2.tau_switch = Seconds(2e-9);
        let mut mosfet = MosfetParams::default();
        // k = 10 µA/V² puts the useful V_gs input range at ~0.5–0.9 V for
        // the µA-class supply currents reported for VO₂ oscillators.
        mosfet.k = 10e-6;
        OscillatorParams {
            vo2,
            mosfet,
            vdd: Volts(2.5),
            c_node: Farads(0.1e-12),
        }
    }
}

impl OscillatorParams {
    /// The series resistance produced by a gate voltage.
    ///
    /// # Errors
    ///
    /// Returns [`OscError::Device`] for invalid MOSFET parameters.
    pub(crate) fn series_resistance(&self, v_gs: Volts) -> Result<Ohms, OscError> {
        let fet = Mosfet::new(self.mosfet)?;
        Ok(fet.effective_resistance(v_gs))
    }

    /// The mid-swing threshold used by the XOR readout: halfway between the
    /// two switching voltages.
    #[must_use]
    pub(crate) fn readout_threshold(&self) -> Volts {
        Volts(0.5 * (self.vo2.v_imt.0 + self.vo2.v_mit.0))
    }

    /// Validates the bias point and returns the series resistance.
    ///
    /// # Errors
    ///
    /// * [`OscError::Device`] for invalid device parameters.
    /// * [`OscError::NoOscillation`] when the load line misses the
    ///   hysteretic window.
    pub(crate) fn checked_bias(&self, v_gs: Volts) -> Result<Ohms, OscError> {
        self.vo2.validate()?;
        self.mosfet.validate()?;
        let r = self.series_resistance(v_gs)?;
        if !r.0.is_finite() || !oscillation_condition(&self.vo2, self.vdd, r) {
            return Err(OscError::NoOscillation { r_series_ohms: r.0 });
        }
        Ok(r)
    }
}

/// Time-stepping configuration for oscillator simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// Integration step.
    pub dt: Seconds,
    /// Total simulated time.
    pub duration: Seconds,
}

/// Fraction of a recorded run discarded as transient warm-up.
const WARMUP_FRACTION: f64 = 0.25;

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            dt: Seconds(0.1e-9),
            duration: Seconds(3e-6),
        }
    }
}

/// Shared RHS helper: writes the derivatives for one oscillator given its
/// state slice `[v, f, m]` and any extra node current `i_extra` flowing
/// *out* of the node (e.g. into a coupling branch).
pub(crate) fn oscillator_rhs(
    params: &OscillatorParams,
    r_series: f64,
    y: &[f64],
    dy: &mut [f64],
    i_extra: f64,
) {
    let v = y[0];
    let f = y[1];
    let m = y[2];
    let g_ins = 1.0 / params.vo2.r_insulating.0;
    let g_met = 1.0 / params.vo2.r_metallic.0;
    let g = g_ins + (g_met - g_ins) * f.clamp(0.0, 1.0);
    dy[0] = ((params.vdd.0 - v) / r_series - v * g - i_extra) / params.c_node.0;
    let tau = params.vo2.tau_switch.0;
    dy[1] = if tau > 0.0 { (m - f) / tau } else { 0.0 };
    dy[2] = 0.0;
}

/// Shared projection helper: hysteresis comparator + metallic-fraction
/// clamping for one oscillator state slice.
pub(crate) fn oscillator_project(params: &OscillatorParams, y: &mut [f64]) {
    let v = y[0];
    let metallic = y[2] > 0.5;
    let new_metallic = if metallic {
        v >= params.vo2.v_mit.0
    } else {
        v > params.vo2.v_imt.0
    };
    y[2] = if new_metallic { 1.0 } else { 0.0 };
    if params.vo2.tau_switch.0 <= 0.0 {
        y[1] = y[2];
    } else {
        y[1] = y[1].clamp(0.0, 1.0);
    }
}

/// A single relaxation oscillator ready to simulate.
#[derive(Debug, Clone, PartialEq)]
pub struct SingleOscillator {
    params: OscillatorParams,
    r_series: f64,
    v_gs: Volts,
}

impl SingleOscillator {
    /// Creates an oscillator biased at gate voltage `v_gs`.
    ///
    /// # Errors
    ///
    /// Propagates `OscillatorParams::checked_bias` errors — in particular
    /// [`OscError::NoOscillation`] for bias points outside the oscillating
    /// window.
    pub fn new(params: OscillatorParams, v_gs: Volts) -> Result<Self, OscError> {
        let r = params.checked_bias(v_gs)?;
        Ok(SingleOscillator {
            params,
            r_series: r.0,
            v_gs,
        })
    }

    /// Simulates with the given configuration.
    ///
    /// # Errors
    ///
    /// Currently infallible in practice but kept fallible for parity with
    /// the coupled simulators.
    pub fn simulate(&self, config: SimConfig) -> Result<OscRun, OscError> {
        let mut y = vec![0.0; STATE_VARS];
        Ok(OscRun::record(
            self,
            &mut y,
            config,
            1,
            self.params.readout_threshold(),
        ))
    }
}

impl OdeSystem for SingleOscillator {
    fn dim(&self) -> usize {
        STATE_VARS
    }

    fn rhs(&self, _t: f64, y: &[f64], dy: &mut [f64]) {
        oscillator_rhs(&self.params, self.r_series, y, dy, 0.0);
    }

    fn project(&self, y: &mut [f64]) {
        oscillator_project(&self.params, y);
    }
}

/// A recorded oscillator run: node-voltage waveforms after warm-up.
#[derive(Debug, Clone, PartialEq)]
pub struct OscRun {
    dt: f64,
    threshold: f64,
    /// `waveforms[i]` is the node voltage of oscillator `i`.
    waveforms: Vec<Vec<f64>>,
}

impl OscRun {
    /// Integrates `system` from the initial state `y` with RK4 and records
    /// the node voltage (state slot `3·i`) of each of its `n_osc` cells at
    /// every step, initial state included; then discards the leading
    /// [`WARMUP_FRACTION`] of the samples.
    pub(crate) fn record<S: OdeSystem>(
        system: &S,
        y: &mut [f64],
        config: SimConfig,
        n_osc: usize,
        threshold: Volts,
    ) -> Self {
        let mut stepper = Rk4::new(config.dt.0);
        // The initial state, one sample per step, and the step more that
        // `t < duration` takes when the accumulated time falls just short.
        let expected = ((config.duration.0 / config.dt.0).ceil() as usize).saturating_add(2);
        // One row of node voltages per step, appended in time order; the
        // per-cell waveforms are cut out of the rows afterwards. (Pushing
        // onto `n_osc` page-aligned waveforms at every step instead makes
        // as many store streams that share one L1 set: 4.6 ms of a 20 ms
        // 16-cell run, against 1.2 ms this way.)
        let width = n_osc.max(1);
        let mut rows: Vec<f64> = Vec::with_capacity(expected.saturating_mul(width));
        integrate_observed(
            system,
            &mut stepper,
            0.0,
            config.duration.0,
            y,
            |_, state| rows.extend((0..n_osc).map(|i| state[i * STATE_VARS])),
        );
        let samples = rows.len() / width;
        let skip = (samples as f64 * WARMUP_FRACTION) as usize;
        let mut waveforms: Vec<Vec<f64>> = (0..n_osc)
            .map(|_| Vec::with_capacity(samples - skip))
            .collect();
        // Transposed a tile of rows at a time, so each waveform grows by
        // whole cache lines.
        for tile in rows[skip * width..].chunks(64 * width) {
            for (i, wf) in waveforms.iter_mut().enumerate() {
                wf.extend(tile.iter().skip(i).step_by(width));
            }
        }
        OscRun {
            dt: config.dt.0,
            threshold: threshold.0,
            waveforms,
        }
    }

    /// Sampling interval of the waveforms.
    #[must_use]
    pub(crate) fn dt(&self) -> Seconds {
        Seconds(self.dt)
    }

    /// The readout threshold used for cycle detection.
    #[must_use]
    pub(crate) fn threshold(&self) -> Volts {
        Volts(self.threshold)
    }

    /// The recorded node-voltage waveform of oscillator `index`.
    ///
    /// # Errors
    ///
    /// Returns [`OscError::BadIndex`] when out of range.
    pub(crate) fn waveform(&self, index: usize) -> Result<&[f64], OscError> {
        self.waveforms
            .get(index)
            .map(Vec::as_slice)
            .ok_or(OscError::BadIndex {
                index,
                len: self.waveforms.len(),
            })
    }

    /// Oscillation frequency (Hz) of oscillator `index` from threshold
    /// crossings.
    ///
    /// # Errors
    ///
    /// * [`OscError::BadIndex`] for an out-of-range index.
    /// * [`OscError::TooFewCycles`] when fewer than 2 cycles were captured.
    pub fn frequency(&self, index: usize) -> Result<f64, OscError> {
        let wf = self.waveform(index)?;
        signal::estimate_frequency(wf, self.dt, self.threshold).map_err(|_| {
            OscError::TooFewCycles {
                found: signal::rising_crossings(wf, self.threshold).len(),
                required: 2,
            }
        })
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// The sampling path every simulator used to share: clone the whole
    /// state at every step ([`numerics::ode::integrate_sampled`]), then
    /// copy the node voltages out of the clones past the warm-up. Asserts
    /// that `run` holds the same waveforms, bit for bit.
    pub(crate) fn assert_same_waveforms<S: OdeSystem>(
        system: &S,
        mut y: Vec<f64>,
        config: SimConfig,
        run: &OscRun,
    ) {
        let mut stepper = Rk4::new(config.dt.0);
        let (_, states) = numerics::ode::integrate_sampled(
            system,
            &mut stepper,
            0.0,
            config.duration.0,
            &mut y,
            1,
        );
        let skip = (states.len() as f64 * WARMUP_FRACTION) as usize;
        for i in 0..run.waveforms.len() {
            let expected: Vec<u64> = states[skip..]
                .iter()
                .map(|state| state[i * STATE_VARS].to_bits())
                .collect();
            let got: Vec<u64> = run
                .waveform(i)
                .unwrap()
                .iter()
                .map(|v| v.to_bits())
                .collect();
            assert!(got == expected, "waveform {i} differs");
        }
    }

    #[test]
    fn single_cell_waveform_equals_whole_state_sampling_bit_for_bit() {
        let cell = osc(0.62);
        let config = SimConfig::default();
        let run = cell.simulate(config).unwrap();
        assert_eq!(run.waveforms.len(), 1);
        assert_same_waveforms(&cell, vec![0.0; STATE_VARS], config, &run);
    }

    fn osc(v_gs: f64) -> SingleOscillator {
        SingleOscillator::new(OscillatorParams::default(), Volts(v_gs)).unwrap()
    }

    #[test]
    fn oscillates_in_mhz_range() {
        let run = osc(0.62).simulate(SimConfig::default()).unwrap();
        let f = run.frequency(0).unwrap();
        assert!(
            (1e6..1e9).contains(&f),
            "frequency {f} Hz outside plausible range"
        );
        assert!(signal::rising_crossings(&run.waveforms[0], run.threshold).len() > 10);
    }

    #[test]
    fn frequency_increases_with_vgs() {
        // Higher V_gs → lower series resistance → faster charging.
        let f_slow = osc(0.55)
            .simulate(SimConfig::default())
            .unwrap()
            .frequency(0)
            .unwrap();
        let f_fast = osc(0.75)
            .simulate(SimConfig::default())
            .unwrap()
            .frequency(0)
            .unwrap();
        assert!(
            f_fast > f_slow * 1.05,
            "expected tuning: {f_slow} → {f_fast}"
        );
    }

    #[test]
    fn non_oscillating_bias_rejected() {
        let params = OscillatorParams::default();
        // Very high V_gs → tiny series resistance → metallic latch.
        assert!(matches!(
            SingleOscillator::new(params, Volts(5.0)),
            Err(OscError::NoOscillation { .. })
        ));
        // Below threshold → infinite resistance → no charge path.
        assert!(matches!(
            SingleOscillator::new(params, Volts(0.2)),
            Err(OscError::NoOscillation { .. })
        ));
    }

    #[test]
    fn waveform_index_checked() {
        let run = osc(0.62).simulate(SimConfig::default()).unwrap();
        assert!(run.waveform(0).is_ok());
        assert!(matches!(
            run.waveform(1),
            Err(OscError::BadIndex { index: 1, len: 1 })
        ));
    }

    #[test]
    fn readout_threshold_is_mid_window() {
        let p = OscillatorParams::default();
        let th = p.readout_threshold();
        assert!(th.0 > p.vo2.v_mit.0 && th.0 < p.vo2.v_imt.0);
    }

    #[test]
    fn deterministic_simulation() {
        let a = osc(0.6).simulate(SimConfig::default()).unwrap();
        let b = osc(0.6).simulate(SimConfig::default()).unwrap();
        assert_eq!(a.waveform(0).unwrap(), b.waveform(0).unwrap());
    }

    #[test]
    fn series_resistance_tracks_vgs() {
        let p = OscillatorParams::default();
        let r1 = p.series_resistance(Volts(0.5)).unwrap();
        let r2 = p.series_resistance(Volts(0.9)).unwrap();
        assert!(r2.0 < r1.0);
    }

    #[test]
    fn waveform_stays_bounded_by_supply() {
        let p = OscillatorParams::default();
        let run = osc(0.62).simulate(SimConfig::default()).unwrap();
        for &v in run.waveform(0).unwrap() {
            assert!((-0.01..=p.vdd.0 + 0.01).contains(&v), "v = {v}");
        }
    }
}

//! Coupled-oscillator `l_k` distance norms (paper Fig. 5).
//!
//! The XOR measure of a locked pair, plotted against the input detuning
//! `ΔV_gs`, has its minimum at `ΔV_gs = 0` and rises as `a·|ΔV_gs|^k + c`
//! near the minimum. The exponent `k` is set by the coupling network — the
//! paper reports `k ≈ 1.6` → `2.0` (parabolic) → `3.4` across coupling
//! strengths, with fractional (`k < 1`) tails further from the minimum.
//!
//! * [`NormSweep`] sweeps `ΔV_gs` and produces a [`NormCurve`];
//! * [`NormCurve::fit_exponent`] extracts `k` by power-law fitting over the
//!   smooth region around the minimum;
//! * [`NormRegime`] names three canonical coupling configurations of this
//!   simulator whose fitted exponents bracket the paper's range;
//! * [`OscillatorDistance`] packages pair + readout into the calibrated
//!   distance primitive consumed by the FAST corner detector: the hardware
//!   is characterized once (a `ΔV_gs → measure` transfer curve, exactly how
//!   a real oscillator block would be calibrated), then evaluated cheaply
//!   per comparison.
//!
//! # Example
//!
//! ```no_run
//! use osc::norms::{NormRegime, NormSweep};
//!
//! let sweep = NormSweep::new(NormRegime::Parabolic.config())?;
//! let curve = sweep.run(0.62, 0.012, 9)?;
//! let fit = curve.fit_exponent(0.3, 6.0)?;
//! assert!(fit.exponent > 0.5 && fit.exponent < 6.0);
//! # Ok::<(), osc::OscError>(())
//! ```

use crate::pair::{CoupledPair, PairConfig};
use crate::OscError;
use device::passive::CouplingNetwork;
use device::units::{Farads, Ohms, Volts};
use numerics::fit::{fit_power_law_offset, PowerLawFit};
use numerics::interp::Interpolator;

/// Canonical coupling regimes of this simulator, named by the shape of the
/// measure-vs-detuning curve they produce.
///
/// Fitted exponents (see EXPERIMENTS.md): the paper's devices show `k`
/// increasing with coupling strength (decreasing `R_C`); in this circuit
/// model the exponent instead *grows* with `R_C` inside the anti-phase
/// locking regime. The three regimes below span the same `k ≈ 1 … 3.4`
/// family the paper demonstrates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NormRegime {
    /// Near-linear / fractional regime (`k ≈ 1`), strongest coupling.
    Shallow,
    /// Near-quadratic regime (`k ≈ 2`).
    Parabolic,
    /// Strongly nonlinear regime (`k ≳ 3`), weakest still-anti-phase
    /// coupling.
    Steep,
}

impl NormRegime {
    /// All regimes in increasing-exponent order.
    pub const ALL: [NormRegime; 3] = [
        NormRegime::Shallow,
        NormRegime::Parabolic,
        NormRegime::Steep,
    ];

    /// The coupling resistance realizing this regime (with the default cell
    /// parameters and 0.15 pF coupling capacitance).
    #[must_use]
    pub fn coupling_resistance(self) -> Ohms {
        match self {
            NormRegime::Shallow => Ohms(100e3),
            NormRegime::Parabolic => Ohms(220e3),
            NormRegime::Steep => Ohms(300e3),
        }
    }

    /// A ready-made [`PairConfig`] for this regime.
    #[must_use]
    pub fn config(self) -> PairConfig {
        let mut cfg = PairConfig::default();
        cfg.coupling = CouplingNetwork::new(self.coupling_resistance(), Farads(15e-15))
            .expect("regime coupling values are valid");
        cfg
    }
}

impl std::fmt::Display for NormRegime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            NormRegime::Shallow => "shallow",
            NormRegime::Parabolic => "parabolic",
            NormRegime::Steep => "steep",
        };
        f.write_str(s)
    }
}

/// One point of a measure-vs-detuning curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NormPoint {
    /// Detuning `ΔV_gs`.
    pub delta_vgs: f64,
    /// The `1 − Avg(XOR)` measure.
    pub measure: f64,
    /// Whether the pair frequency-locked at this detuning.
    pub locked: bool,
}

/// A swept measure-vs-detuning curve (Fig. 5 raw data).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct NormCurve {
    points: Vec<NormPoint>,
}

impl NormCurve {
    /// The sweep points, ordered by `delta_vgs`.
    #[must_use]
    pub fn points(&self) -> &[NormPoint] {
        &self.points
    }

    /// Extracts the fit window: locked points forming a tolerantly-monotone
    /// rise away from zero detuning (both signs folded onto `|ΔV_gs|`),
    /// stopping at lock loss, a measure collapse, or a jump past
    /// `measure > 0.55` — unlocked pairs decorrelate to a measure of ~0.5,
    /// so anything above that is a phase-slip discontinuity at the edge of
    /// the locking range rather than part of the smooth norm curve.
    #[must_use]
    pub(crate) fn fit_window(&self) -> (Vec<f64>, Vec<f64>) {
        let mut folded: Vec<(f64, f64, bool)> = self
            .points
            .iter()
            .map(|p| (p.delta_vgs.abs(), p.measure, p.locked))
            .collect();
        folded.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite detuning"));
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        let mut last = f64::NEG_INFINITY;
        for (dv, m, locked) in folded {
            if !locked || m > 0.55 {
                break;
            }
            if m < last - 0.05 {
                break;
            }
            xs.push(dv);
            ys.push(m);
            last = last.max(m);
        }
        (xs, ys)
    }

    /// Fits `measure = a·|ΔV_gs|^k + c` over the `NormCurve::fit_window`.
    ///
    /// # Errors
    ///
    /// Propagates [`fit_power_law_offset`] errors — notably
    /// [`numerics::NumericsError::InsufficientData`] when fewer than three
    /// usable points exist (sweep wider or finer).
    pub fn fit_exponent(&self, k_lo: f64, k_hi: f64) -> Result<PowerLawFit, OscError> {
        let (xs, ys) = self.fit_window();
        Ok(fit_power_law_offset(&xs, &ys, k_lo, k_hi)?)
    }
}

impl FromIterator<NormPoint> for NormCurve {
    fn from_iter<I: IntoIterator<Item = NormPoint>>(iter: I) -> Self {
        let mut points: Vec<NormPoint> = iter.into_iter().collect();
        points.sort_by(|a, b| {
            a.delta_vgs
                .partial_cmp(&b.delta_vgs)
                .expect("finite detuning")
        });
        NormCurve { points }
    }
}

/// Sweep driver producing [`NormCurve`]s.
#[derive(Debug, Clone, PartialEq)]
pub struct NormSweep {
    config: PairConfig,
}

impl NormSweep {
    /// Creates a sweep; each point reads the XOR measure over the whole run.
    ///
    /// # Errors
    ///
    /// Reserved for configuration validation; currently always succeeds.
    pub fn new(config: PairConfig) -> Result<Self, OscError> {
        Ok(NormSweep { config })
    }

    /// Runs a symmetric sweep: `n_points` detunings over `[0, dv_max]`
    /// mirrored to negative detunings (2·n − 1 simulations).
    ///
    /// # Errors
    ///
    /// Propagates bias-validation and simulation errors.
    pub fn run(&self, v_center: f64, dv_max: f64, n_points: usize) -> Result<NormCurve, OscError> {
        let n = n_points.max(2);
        let mut points = Vec::with_capacity(2 * n - 1);
        for i in 0..n {
            let dv = dv_max * i as f64 / (n - 1) as f64;
            let p = self.probe(v_center, dv)?;
            points.push(p);
            if dv > 0.0 {
                // The circuit is symmetric under input swap.
                points.push(NormPoint {
                    delta_vgs: -dv,
                    ..p
                });
            }
        }
        Ok(points.into_iter().collect())
    }

    /// Measures a single detuning point.
    ///
    /// # Errors
    ///
    /// Propagates bias-validation and simulation errors.
    pub(crate) fn probe(&self, v_center: f64, dv: f64) -> Result<NormPoint, OscError> {
        let pair = CoupledPair::new(
            self.config,
            Volts(v_center + dv / 2.0),
            Volts(v_center - dv / 2.0),
        )?;
        let run = pair.simulate_default()?;
        let measure = run.xor_measure()?;
        let locked = run.is_locked(0.01).unwrap_or(false);
        Ok(NormPoint {
            delta_vgs: dv,
            measure,
            locked,
        })
    }
}

/// The calibrated oscillator distance primitive used by the vision
/// workload.
///
/// Calibration simulates the pair over a grid of detunings once and stores
/// the monotone envelope of the transfer curve; evaluation then maps a pair
/// of normalized inputs `x, y ∈ [0, 1]` through the input encoding
/// (`V_gs = v_center ± full_scale·(x − y)/2`) and the calibrated curve.
/// This mirrors how a physical oscillator block is used: characterized once,
/// then operated as a transfer function.
#[derive(Debug, Clone, PartialEq)]
pub struct OscillatorDistance {
    config: PairConfig,
    v_center: f64,
    full_scale: f64,
    curve: Interpolator,
}

impl OscillatorDistance {
    /// Calibrates a distance primitive.
    ///
    /// * `v_center` — centre gate voltage of the encoding;
    /// * `full_scale` — the `ΔV_gs` corresponding to `|x − y| = 1`;
    /// * `n_cal` — number of calibration detunings in `[0, full_scale]`.
    ///
    /// # Errors
    ///
    /// Propagates simulation errors; requires `n_cal >= 3`.
    pub fn calibrate(
        config: PairConfig,
        v_center: f64,
        full_scale: f64,
        n_cal: usize,
    ) -> Result<Self, OscError> {
        if n_cal < 3 {
            return Err(OscError::Numerics(
                numerics::NumericsError::InsufficientData {
                    required: 3,
                    provided: n_cal,
                },
            ));
        }
        let sweep = NormSweep::new(config)?;
        let mut xs = Vec::with_capacity(n_cal);
        let mut ys = Vec::with_capacity(n_cal);
        let mut envelope: f64 = 0.0;
        for i in 0..n_cal {
            let dv = full_scale * i as f64 / (n_cal - 1) as f64;
            let p = sweep.probe(v_center, dv)?;
            // Monotone envelope: the physical curve saturates near 0.5 once
            // the pair unlocks; enforce non-decreasing calibration so the
            // distance is usable as a metric surrogate.
            envelope = envelope.max(p.measure);
            xs.push(dv);
            ys.push(envelope);
        }
        let curve = Interpolator::pchip(&xs, &ys)?;
        Ok(OscillatorDistance {
            config,
            v_center,
            full_scale,
            curve,
        })
    }

    /// Distance between two normalized inputs `x, y ∈ [0, 1]` via the
    /// calibrated transfer curve. Symmetric, zero-at-equality (up to the
    /// curve floor), saturating.
    #[must_use]
    pub fn distance(&self, x: f64, y: f64) -> f64 {
        let dv = (x - y).abs() * self.full_scale;
        self.curve.eval(dv)
    }

    /// Full-physics distance: simulates the coupled pair for these inputs
    /// instead of using the calibration curve. Slow; used for spot-checking
    /// the calibration.
    ///
    /// # Errors
    ///
    /// Propagates bias-validation and simulation errors.
    pub fn distance_exact(&self, x: f64, y: f64) -> Result<f64, OscError> {
        let offset = |v: f64| self.v_center + self.full_scale * (v - 0.5);
        let pair = CoupledPair::new(self.config, Volts(offset(x)), Volts(offset(y)))?;
        let run = pair.simulate_default()?;
        run.xor_measure()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use device::units::Seconds;

    fn quick(regime: NormRegime) -> PairConfig {
        let mut cfg = regime.config();
        cfg.sim.duration = Seconds(2e-6);
        cfg
    }

    #[test]
    fn regimes_have_distinct_increasing_rc() {
        let rs: Vec<f64> = NormRegime::ALL
            .iter()
            .map(|r| r.coupling_resistance().0)
            .collect();
        assert!(rs.windows(2).all(|w| w[1] > w[0]));
    }

    #[test]
    fn curve_measure_grows_from_floor() {
        let sweep = NormSweep::new(quick(NormRegime::Shallow)).unwrap();
        let curve = sweep.run(0.62, 0.01, 5).unwrap();
        let points = curve.points();
        let floor = points
            .iter()
            .min_by(|a, b| a.delta_vgs.abs().total_cmp(&b.delta_vgs.abs()))
            .unwrap()
            .measure;
        let max = points.iter().map(|p| p.measure).fold(f64::MIN, f64::max);
        assert!(floor < 0.25, "floor {floor}");
        assert!(max > floor + 0.05, "no rise: {floor} → {max}");
    }

    #[test]
    fn curve_is_symmetric_by_construction() {
        let sweep = NormSweep::new(quick(NormRegime::Shallow)).unwrap();
        let curve = sweep.run(0.62, 0.008, 3).unwrap();
        let pts = curve.points();
        assert_eq!(pts.len(), 5);
        let at = |dv: f64| {
            pts.iter()
                .find(|p| (p.delta_vgs - dv).abs() < 1e-12)
                .unwrap()
                .measure
        };
        assert_eq!(at(0.008), at(-0.008));
    }

    #[test]
    fn shallow_regime_fits_low_exponent() {
        let sweep = NormSweep::new(quick(NormRegime::Shallow)).unwrap();
        let curve = sweep.run(0.62, 0.014, 8).unwrap();
        let fit = curve.fit_exponent(0.3, 6.0).unwrap();
        assert!(
            fit.exponent < 2.0,
            "shallow regime exponent {}",
            fit.exponent
        );
    }

    #[test]
    fn fit_window_stops_at_lock_loss() {
        let points = vec![
            NormPoint {
                delta_vgs: 0.0,
                measure: 0.05,
                locked: true,
            },
            NormPoint {
                delta_vgs: 0.01,
                measure: 0.2,
                locked: true,
            },
            NormPoint {
                delta_vgs: 0.02,
                measure: 0.5,
                locked: false,
            },
        ];
        let curve: NormCurve = points.into_iter().collect();
        let (xs, _) = curve.fit_window();
        assert_eq!(xs.len(), 2);
    }

    #[test]
    fn fit_window_stops_at_collapse() {
        let mk = |dv: f64, m: f64| NormPoint {
            delta_vgs: dv,
            measure: m,
            locked: true,
        };
        let curve: NormCurve = vec![
            mk(0.0, 0.05),
            mk(0.01, 0.3),
            mk(0.02, 0.1), // collapse > 0.05 below running max
            mk(0.03, 0.4),
        ]
        .into_iter()
        .collect();
        let (xs, _) = curve.fit_window();
        assert_eq!(xs.len(), 2);
    }

    #[test]
    fn distance_primitive_monotone_and_symmetric() {
        let dist =
            OscillatorDistance::calibrate(quick(NormRegime::Shallow), 0.62, 0.015, 5).unwrap();
        assert_eq!(dist.distance(0.2, 0.8), dist.distance(0.8, 0.2));
        let d_small = dist.distance(0.5, 0.55);
        let d_large = dist.distance(0.5, 0.95);
        assert!(d_large >= d_small, "{d_small} vs {d_large}");
        assert_eq!(dist.distance(0.3, 0.3), dist.distance(0.5, 0.5));
    }

    #[test]
    fn calibration_requires_three_points() {
        assert!(OscillatorDistance::calibrate(quick(NormRegime::Shallow), 0.62, 0.01, 2).is_err());
    }

    #[test]
    fn regime_display() {
        assert_eq!(NormRegime::Steep.to_string(), "steep");
    }
}

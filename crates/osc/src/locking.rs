//! Frequency-locking analysis (paper Fig. 3).
//!
//! Fig. 3 shows an RC-coupled IMT-oscillator pair pulling into a common
//! frequency. [`LockingSweep`] reproduces the experiment: sweep the detuning
//! `ΔV_gs`, record each oscillator's frequency **uncoupled** (isolated cells)
//! and **coupled**, and detect the locking plateau where the coupled
//! frequencies collapse onto each other.
//!
//! # Example
//!
//! ```no_run
//! use osc::locking::LockingSweep;
//! use osc::pair::PairConfig;
//!
//! let sweep = LockingSweep::new(PairConfig::default());
//! let curve = sweep.run(0.62, 0.03, 13)?;
//! let range = curve.locking_range(0.01);
//! assert!(range.is_some(), "some detunings should lock");
//! # Ok::<(), osc::OscError>(())
//! ```

use crate::pair::{CoupledPair, PairConfig};
use crate::relaxation::SingleOscillator;
use crate::OscError;
use device::units::Volts;

/// One row of a locking sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LockingPoint {
    /// The detuning `ΔV_gs = V_gs1 − V_gs2`.
    pub delta_vgs: f64,
    /// Frequency of oscillator 1 in isolation (Hz).
    pub f1_uncoupled: f64,
    /// Frequency of oscillator 2 in isolation (Hz).
    pub f2_uncoupled: f64,
    /// Frequency of oscillator 1 when coupled (Hz).
    pub f1_coupled: f64,
    /// Frequency of oscillator 2 when coupled (Hz).
    pub f2_coupled: f64,
    /// Phase difference of the coupled pair (radians, `[0, 2π)`), when
    /// estimable.
    pub phase: Option<f64>,
}

impl LockingPoint {
    /// Relative coupled-frequency mismatch `|f₁ − f₂|/f₁`.
    #[must_use]
    pub fn coupled_mismatch(&self) -> f64 {
        ((self.f1_coupled - self.f2_coupled) / self.f1_coupled).abs()
    }

    /// Whether the coupled pair is locked at tolerance `rel_tol`.
    #[must_use]
    pub fn is_locked(&self, rel_tol: f64) -> bool {
        self.coupled_mismatch() <= rel_tol
    }
}

/// The result of a full locking sweep: points ordered by `delta_vgs`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LockingCurve {
    points: Vec<LockingPoint>,
}

impl LockingCurve {
    /// The sweep points.
    #[must_use]
    pub fn points(&self) -> &[LockingPoint] {
        &self.points
    }

    /// The contiguous detuning interval around zero within which the pair
    /// locks, or `None` when even zero detuning fails to lock.
    #[must_use]
    pub fn locking_range(&self, rel_tol: f64) -> Option<(f64, f64)> {
        // Find the point closest to zero detuning.
        let center = self
            .points
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| {
                a.delta_vgs
                    .abs()
                    .partial_cmp(&b.delta_vgs.abs())
                    .expect("finite detunings")
            })
            .map(|(i, _)| i)?;
        if !self.points[center].is_locked(rel_tol) {
            return None;
        }
        let mut lo = center;
        while lo > 0 && self.points[lo - 1].is_locked(rel_tol) {
            lo -= 1;
        }
        let mut hi = center;
        while hi + 1 < self.points.len() && self.points[hi + 1].is_locked(rel_tol) {
            hi += 1;
        }
        Some((self.points[lo].delta_vgs, self.points[hi].delta_vgs))
    }

    /// Fraction of swept points that locked.
    #[must_use]
    pub fn locked_fraction(&self, rel_tol: f64) -> f64 {
        if self.points.is_empty() {
            return 0.0;
        }
        self.points.iter().filter(|p| p.is_locked(rel_tol)).count() as f64
            / self.points.len() as f64
    }
}

impl FromIterator<LockingPoint> for LockingCurve {
    fn from_iter<I: IntoIterator<Item = LockingPoint>>(iter: I) -> Self {
        LockingCurve {
            points: iter.into_iter().collect(),
        }
    }
}

/// Sweep driver for [`LockingCurve`]s.
#[derive(Debug, Clone, PartialEq)]
pub struct LockingSweep {
    config: PairConfig,
}

impl LockingSweep {
    /// Creates a sweep over the given pair configuration.
    #[must_use]
    pub fn new(config: PairConfig) -> Self {
        LockingSweep { config }
    }

    /// The pair configuration being swept.
    #[must_use]
    pub fn config(&self) -> &PairConfig {
        &self.config
    }

    /// Runs the sweep: `n_points` detunings spread symmetrically over
    /// `[−dv_max, +dv_max]` around the centre gate voltage `v_center`.
    ///
    /// # Errors
    ///
    /// * [`OscError::NoOscillation`] when a swept bias point leaves the
    ///   oscillating window (shrink `dv_max`).
    /// * Propagates simulation/estimation errors.
    pub fn run(
        &self,
        v_center: f64,
        dv_max: f64,
        n_points: usize,
    ) -> Result<LockingCurve, OscError> {
        let n = n_points.max(2);
        let mut points = Vec::with_capacity(n);
        for i in 0..n {
            let dv = -dv_max + 2.0 * dv_max * i as f64 / (n - 1) as f64;
            points.push(self.probe(v_center, dv)?);
        }
        Ok(LockingCurve { points })
    }

    /// Measures one detuning point.
    ///
    /// # Errors
    ///
    /// Same conditions as [`LockingSweep::run`].
    pub fn probe(&self, v_center: f64, dv: f64) -> Result<LockingPoint, OscError> {
        let v1 = Volts(v_center + dv / 2.0);
        let v2 = Volts(v_center - dv / 2.0);

        let single1 = SingleOscillator::new(self.config.osc, v1)?;
        let single2 = SingleOscillator::new(self.config.osc, v2)?;
        let f1_unc = single1.simulate(self.config.sim)?.frequency(0)?;
        let f2_unc = single2.simulate(self.config.sim)?.frequency(0)?;

        let pair = CoupledPair::new(self.config, v1, v2)?;
        let run = pair.simulate_default()?;
        let f1_c = run.frequency(0)?;
        let f2_c = run.frequency(1)?;
        let phase = run.phase_difference().ok();

        Ok(LockingPoint {
            delta_vgs: dv,
            f1_uncoupled: f1_unc,
            f2_uncoupled: f2_unc,
            f1_coupled: f1_c,
            f2_coupled: f2_c,
            phase,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_config() -> PairConfig {
        // Shorter runs keep the sweep tests fast while leaving tens of
        // cycles for frequency estimation.
        let mut cfg = PairConfig::default();
        cfg.sim.duration = device::units::Seconds(2e-6);
        cfg
    }

    #[test]
    fn zero_detuning_locks() {
        let sweep = LockingSweep::new(quick_config());
        let p = sweep.probe(0.62, 0.0).unwrap();
        assert!(p.is_locked(0.01), "mismatch {}", p.coupled_mismatch());
        assert!(((p.f1_uncoupled - p.f2_uncoupled) / p.f1_uncoupled).abs() < 0.01);
    }

    #[test]
    fn coupling_pulls_frequencies_together() {
        let sweep = LockingSweep::new(quick_config());
        let p = sweep.probe(0.62, 0.01).unwrap();
        let uncoupled = ((p.f1_uncoupled - p.f2_uncoupled) / p.f1_uncoupled).abs();
        assert!(
            p.coupled_mismatch() < uncoupled,
            "coupled {} vs uncoupled {uncoupled}",
            p.coupled_mismatch(),
        );
    }

    #[test]
    fn large_detuning_unlocks() {
        let sweep = LockingSweep::new(quick_config());
        let p = sweep.probe(0.64, 0.08).unwrap();
        assert!(!p.is_locked(0.005), "should not lock at huge detuning");
    }

    #[test]
    fn sweep_finds_locking_plateau() {
        let sweep = LockingSweep::new(quick_config());
        let curve = sweep.run(0.62, 0.04, 9).unwrap();
        let range = curve.locking_range(0.01).expect("plateau exists");
        assert!(range.0 <= 0.0 && range.1 >= 0.0, "range {range:?}");
        assert!(range.1 - range.0 < 0.08, "plateau should be bounded");
        let frac = curve.locked_fraction(0.01);
        assert!(frac > 0.0 && frac < 1.0, "fraction {frac}");
    }

    #[test]
    fn curve_from_iterator() {
        let p = LockingPoint {
            delta_vgs: 0.0,
            f1_uncoupled: 1.0,
            f2_uncoupled: 1.0,
            f1_coupled: 1.0,
            f2_coupled: 1.0,
            phase: None,
        };
        let curve: LockingCurve = std::iter::repeat_n(p, 3).collect();
        assert_eq!(curve.points().len(), 3);
        assert_eq!(curve.locked_fraction(0.01), 1.0);
    }

    #[test]
    fn empty_curve_has_no_range() {
        let curve = LockingCurve::default();
        assert!(curve.locking_range(0.01).is_none());
        assert_eq!(curve.locked_fraction(0.01), 0.0);
    }
}

//! Restricted Boltzmann machines with mode-assisted (memcomputing)
//! pre-training.
//!
//! The paper's §IV reports that simulating DMMs "can accelerate (in number
//! of iterations) the pre-training of RBMs as much as … the D-Wave machine
//! … \[and\] perform far better … in terms of training quality" (refs. \[55,
//! 57\]), with a ">1 % accuracy (≈ 20 % error-rate reduction)" edge over
//! supervised baselines. The mechanism (Manukian, Traversa & Di Ventra,
//! *Neural Networks* 2019/2020): replace the Gibbs-chain negative sample of
//! contrastive divergence, with some probability, by the **mode** of the
//! RBM's joint distribution — a QUBO minimization handled by the
//! memcomputing machinery ([`crate::qubo`] → weighted MaxSAT → DMM).
//!
//! This module provides binary RBMs, CD-k training, mode-assisted training
//! with pluggable mode search, exact log-likelihood for small models, and a
//! free-energy classifier for the labeled bars-and-stripes task.
//!
//! # Example
//!
//! ```
//! use mem::rbm::{Rbm, TrainConfig, Trainer};
//! use mem::datasets::bars_and_stripes;
//!
//! let data: Vec<Vec<bool>> = bars_and_stripes(2).into_iter().map(|p| p.pixels).collect();
//! let mut rbm = Rbm::new(4, 4, 0.01, 7)?;
//! let config = TrainConfig { epochs: 50, ..TrainConfig::default() };
//! Trainer::cd(1).train(&mut rbm, &data, &config, 1)?;
//! let ll = rbm.exact_log_likelihood(&data)?;
//! assert!(ll.is_finite());
//! # Ok::<(), mem::MemError>(())
//! ```

use crate::maxsat::MaxSatDmmParams;
use crate::qubo::Qubo;
use crate::MemError;
use numerics::rng::Rng;
use numerics::rng::StdRng;
use numerics::rng::{rng_from_seed, sample_gaussian};

fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

/// A binary–binary restricted Boltzmann machine.
///
/// Energy: `E(v, h) = −Σ_{ij} W_ij v_i h_j − Σ_i a_i v_i − Σ_j b_j h_j`.
#[derive(Debug, Clone, PartialEq)]
pub struct Rbm {
    n_visible: usize,
    n_hidden: usize,
    /// Row-major `n_visible × n_hidden` weights.
    weights: Vec<f64>,
    visible_bias: Vec<f64>,
    hidden_bias: Vec<f64>,
}

impl Rbm {
    /// Creates an RBM with Gaussian-initialized weights (σ = `init_sigma`)
    /// and zero biases.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::Parameter`] for zero-sized layers.
    pub fn new(
        n_visible: usize,
        n_hidden: usize,
        init_sigma: f64,
        seed: u64,
    ) -> Result<Self, MemError> {
        if n_visible == 0 || n_hidden == 0 {
            return Err(MemError::Parameter {
                name: "n_visible/n_hidden",
                reason: "layer sizes must be positive",
            });
        }
        let mut rng = rng_from_seed(seed);
        let weights = (0..n_visible * n_hidden)
            .map(|_| sample_gaussian(&mut rng, 0.0, init_sigma))
            .collect();
        Ok(Rbm {
            n_visible,
            n_hidden,
            weights,
            visible_bias: vec![0.0; n_visible],
            hidden_bias: vec![0.0; n_hidden],
        })
    }

    /// Visible-layer width.
    #[must_use]
    pub fn n_visible(&self) -> usize {
        self.n_visible
    }

    /// Hidden-layer width.
    #[must_use]
    pub fn n_hidden(&self) -> usize {
        self.n_hidden
    }

    fn w(&self, i: usize, j: usize) -> f64 {
        self.weights[i * self.n_hidden + j]
    }

    /// Joint energy of a `(v, h)` configuration.
    ///
    /// # Panics
    ///
    /// Panics on mismatched layer widths.
    #[must_use]
    pub fn energy(&self, v: &[bool], h: &[bool]) -> f64 {
        assert_eq!(v.len(), self.n_visible);
        assert_eq!(h.len(), self.n_hidden);
        let mut e = 0.0;
        for i in 0..self.n_visible {
            if !v[i] {
                continue;
            }
            e -= self.visible_bias[i];
            for j in 0..self.n_hidden {
                if h[j] {
                    e -= self.w(i, j);
                }
            }
        }
        for j in 0..self.n_hidden {
            if h[j] {
                e -= self.hidden_bias[j];
            }
        }
        e
    }

    /// Hidden activation probabilities given a visible vector.
    #[must_use]
    pub fn hidden_probs(&self, v: &[bool]) -> Vec<f64> {
        (0..self.n_hidden)
            .map(|j| {
                let mut act = self.hidden_bias[j];
                for i in 0..self.n_visible {
                    if v[i] {
                        act += self.w(i, j);
                    }
                }
                sigmoid(act)
            })
            .collect()
    }

    /// Visible activation probabilities given a hidden vector.
    #[must_use]
    pub fn visible_probs(&self, h: &[bool]) -> Vec<f64> {
        (0..self.n_visible)
            .map(|i| {
                let mut act = self.visible_bias[i];
                for j in 0..self.n_hidden {
                    if h[j] {
                        act += self.w(i, j);
                    }
                }
                sigmoid(act)
            })
            .collect()
    }

    fn sample(probs: &[f64], rng: &mut StdRng) -> Vec<bool> {
        probs.iter().map(|&p| rng.gen::<f64>() < p).collect()
    }

    /// One Gibbs step `v → h → v'`, returning `(h, v')`.
    pub fn gibbs_step(&self, v: &[bool], rng: &mut StdRng) -> (Vec<bool>, Vec<bool>) {
        let h = Self::sample(&self.hidden_probs(v), rng);
        let v_next = Self::sample(&self.visible_probs(&h), rng);
        (h, v_next)
    }

    /// Free energy `F(v) = −Σ a_i v_i − Σ_j ln(1 + e^{b_j + Σ_i W_ij v_i})`.
    #[must_use]
    pub fn free_energy(&self, v: &[bool]) -> f64 {
        let mut f = 0.0;
        for i in 0..self.n_visible {
            if v[i] {
                f -= self.visible_bias[i];
            }
        }
        for j in 0..self.n_hidden {
            let mut act = self.hidden_bias[j];
            for i in 0..self.n_visible {
                if v[i] {
                    act += self.w(i, j);
                }
            }
            // ln(1 + e^act), stably.
            f -= if act > 30.0 {
                act
            } else {
                (1.0 + act.exp()).ln()
            };
        }
        f
    }

    /// Exact average log-likelihood of a dataset (enumerates the visible
    /// space; `n_visible ≤ 20`).
    ///
    /// # Errors
    ///
    /// Returns [`MemError::Parameter`] when the visible layer is too wide
    /// to enumerate.
    pub fn exact_log_likelihood(&self, data: &[Vec<bool>]) -> Result<f64, MemError> {
        if self.n_visible > 20 {
            return Err(MemError::Parameter {
                name: "n_visible",
                reason: "exact likelihood limited to 20 visible units",
            });
        }
        // log Z via log-sum-exp over all visible configurations.
        let mut free_energies = Vec::with_capacity(1 << self.n_visible);
        for bits in 0..(1u32 << self.n_visible) {
            let v: Vec<bool> = (0..self.n_visible).map(|i| bits >> i & 1 == 1).collect();
            free_energies.push(-self.free_energy(&v));
        }
        let max = free_energies
            .iter()
            .cloned()
            .fold(f64::NEG_INFINITY, f64::max);
        let log_z = max
            + free_energies
                .iter()
                .map(|&x| (x - max).exp())
                .sum::<f64>()
                .ln();
        let mut total = 0.0;
        for v in data {
            total += -self.free_energy(v) - log_z;
        }
        Ok(total / data.len().max(1) as f64)
    }

    /// Mean per-pixel reconstruction error after one Gibbs round trip.
    #[must_use]
    pub fn reconstruction_error(&self, data: &[Vec<bool>], seed: u64) -> f64 {
        let mut rng = rng_from_seed(seed);
        let mut wrong = 0usize;
        let mut total = 0usize;
        for v in data {
            let (_, v2) = self.gibbs_step(v, &mut rng);
            wrong += v.iter().zip(&v2).filter(|(a, b)| a != b).count();
            total += v.len();
        }
        wrong as f64 / total.max(1) as f64
    }

    /// The joint energy as a QUBO over `[v…, h…]` (bipartite quadratic
    /// terms), so the distribution's **mode** is the QUBO minimizer.
    ///
    /// # Errors
    ///
    /// Propagates QUBO construction errors.
    pub fn joint_qubo(&self) -> Result<Qubo, MemError> {
        let n = self.n_visible + self.n_hidden;
        let mut q = Qubo::new(n)?;
        for i in 0..self.n_visible {
            q.add_linear(i, -self.visible_bias[i])?;
            for j in 0..self.n_hidden {
                q.add_quadratic(i, self.n_visible + j, -self.w(i, j))?;
            }
        }
        for j in 0..self.n_hidden {
            q.add_linear(self.n_visible + j, -self.hidden_bias[j])?;
        }
        Ok(q)
    }

    /// Classifies a pixel vector with the free-energy rule on a labeled RBM
    /// whose last two visible units are the one-hot `[bar, stripe]` labels.
    /// Returns `true` for "stripe".
    ///
    /// # Panics
    ///
    /// Panics when `pixels.len() + 2 != n_visible`.
    #[must_use]
    pub fn classify(&self, pixels: &[bool]) -> bool {
        assert_eq!(pixels.len() + 2, self.n_visible);
        let mut with_bar = pixels.to_vec();
        with_bar.push(true);
        with_bar.push(false);
        let mut with_stripe = pixels.to_vec();
        with_stripe.push(false);
        with_stripe.push(true);
        self.free_energy(&with_stripe) < self.free_energy(&with_bar)
    }
}

/// How the negative phase of a gradient step is produced.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NegativePhase {
    /// Contrastive divergence with `k` Gibbs steps.
    ContrastiveDivergence(usize),
    /// Mode-assisted: with probability `p_mode(t)`, use the joint mode
    /// found by the given search; otherwise fall back to CD-1. The
    /// substitution probability is annealed quadratically from 0 to
    /// `p_mode_max` over the epochs — CD learns the gross structure first,
    /// then mode updates carve away spurious deep modes (the schedule shape
    /// of Manukian et al.).
    ModeAssisted {
        /// Final (maximum) probability of substituting the mode sample.
        p_mode_max: f64,
        /// How the mode is searched.
        search: ModeSearch,
    },
}

/// Mode-search backend for mode-assisted training.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ModeSearch {
    /// Exhaustive joint enumeration (small RBMs only).
    Exhaustive,
    /// The memcomputing route: QUBO → weighted MaxSAT → DMM, polished by
    /// greedy descent.
    Dmm,
    /// Greedy 1-flip descent from the data configuration (cheap ablation).
    Greedy,
}

/// Training hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainConfig {
    /// Epochs (full passes over the data).
    pub epochs: usize,
    /// Learning rate.
    pub learning_rate: f64,
    /// Weight-decay coefficient.
    pub weight_decay: f64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 100,
            learning_rate: 0.1,
            weight_decay: 1e-4,
        }
    }
}

/// A trainer bundling the negative-phase strategy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Trainer {
    negative: NegativePhase,
}

impl Trainer {
    /// A CD-k trainer.
    #[must_use]
    pub fn cd(k: usize) -> Self {
        Trainer {
            negative: NegativePhase::ContrastiveDivergence(k.max(1)),
        }
    }

    /// A mode-assisted trainer with the annealed substitution schedule.
    #[must_use]
    pub fn mode_assisted(p_mode_max: f64, search: ModeSearch) -> Self {
        Trainer {
            negative: NegativePhase::ModeAssisted {
                p_mode_max: p_mode_max.clamp(0.0, 1.0),
                search,
            },
        }
    }

    fn mode_sample(
        &self,
        rbm: &Rbm,
        search: ModeSearch,
        seed: u64,
    ) -> Result<(Vec<bool>, Vec<bool>), MemError> {
        let q = rbm.joint_qubo()?;
        let joint = match search {
            ModeSearch::Exhaustive => q.minimize_exhaustive()?.0,
            ModeSearch::Dmm => {
                // One 4 000-step trajectory, as E7 was measured with.
                let mut params = MaxSatDmmParams::default();
                params.dynamics.max_steps = 4_000;
                params.restarts = 1;
                q.minimize_dmm(params, seed)?.0
            }
            ModeSearch::Greedy => {
                // Multi-start greedy descent: best of 8 random restarts.
                let mut rng = rng_from_seed(seed);
                let mut best: Option<(Vec<bool>, f64)> = None;
                for _ in 0..8 {
                    let start: Vec<bool> = (0..q.n_vars()).map(|_| rng.gen()).collect();
                    let (x, value) = q.minimize_greedy(&start);
                    if best.as_ref().is_none_or(|(_, bv)| value < *bv) {
                        best = Some((x, value));
                    }
                }
                best.expect("at least one restart").0
            }
        };
        let v = joint[..rbm.n_visible].to_vec();
        let h = joint[rbm.n_visible..].to_vec();
        Ok((v, h))
    }

    /// Trains in place, returning the per-epoch exact log-likelihood when
    /// the visible layer is small enough (empty vector otherwise).
    ///
    /// # Errors
    ///
    /// * [`MemError::Parameter`] for an empty dataset or width mismatch.
    /// * Propagates mode-search errors.
    pub fn train(
        &self,
        rbm: &mut Rbm,
        data: &[Vec<bool>],
        config: &TrainConfig,
        seed: u64,
    ) -> Result<Vec<f64>, MemError> {
        if data.is_empty() {
            return Err(MemError::Parameter {
                name: "data",
                reason: "training set must be non-empty",
            });
        }
        if data.iter().any(|v| v.len() != rbm.n_visible) {
            return Err(MemError::Parameter {
                name: "data",
                reason: "pattern width must match the visible layer",
            });
        }
        let mut rng = rng_from_seed(seed);
        let track_ll = rbm.n_visible <= 16;
        let mut history = Vec::new();
        let lr = config.learning_rate / data.len() as f64;

        for epoch in 0..config.epochs {
            let mut dw = vec![0.0; rbm.n_visible * rbm.n_hidden];
            let mut da = vec![0.0; rbm.n_visible];
            let mut db = vec![0.0; rbm.n_hidden];
            for v0 in data {
                let h0_probs = rbm.hidden_probs(v0);
                // Negative sample.
                let (vk, hk_probs) = match self.negative {
                    NegativePhase::ContrastiveDivergence(k) => {
                        let mut v = v0.clone();
                        for _ in 0..k {
                            let (_, v_next) = rbm.gibbs_step(&v, &mut rng);
                            v = v_next;
                        }
                        let hk = rbm.hidden_probs(&v);
                        (v, hk)
                    }
                    NegativePhase::ModeAssisted { p_mode_max, search } => {
                        // Quadratic anneal: 0 at epoch 0 → p_mode_max at the
                        // final epoch.
                        let progress = (epoch + 1) as f64 / config.epochs.max(1) as f64;
                        let p_mode = p_mode_max * progress * progress;
                        if rng.gen::<f64>() < p_mode {
                            let mode_seed = rng.gen();
                            let (v, _h) = self.mode_sample(rbm, search, mode_seed)?;
                            // Smooth hidden statistics at the mode visible
                            // configuration keep the update consistent with
                            // the CD estimator's conditional expectations.
                            let hk = rbm.hidden_probs(&v);
                            (v, hk)
                        } else {
                            let (_, v) = rbm.gibbs_step(v0, &mut rng);
                            let hk = rbm.hidden_probs(&v);
                            (v, hk)
                        }
                    }
                };
                // Gradient accumulation: ⟨v h⟩_data − ⟨v h⟩_model.
                for i in 0..rbm.n_visible {
                    let v0i = f64::from(u8::from(v0[i]));
                    let vki = f64::from(u8::from(vk[i]));
                    da[i] += v0i - vki;
                    for j in 0..rbm.n_hidden {
                        dw[i * rbm.n_hidden + j] += v0i * h0_probs[j] - vki * hk_probs[j];
                    }
                }
                for j in 0..rbm.n_hidden {
                    let h0j = h0_probs[j];
                    db[j] += h0j - hk_probs[j];
                }
            }
            for (w, g) in rbm.weights.iter_mut().zip(&dw) {
                *w += lr * g - config.weight_decay * *w;
            }
            for (a, g) in rbm.visible_bias.iter_mut().zip(&da) {
                *a += lr * g;
            }
            for (b, g) in rbm.hidden_bias.iter_mut().zip(&db) {
                *b += lr * g;
            }
            if track_ll {
                history.push(rbm.exact_log_likelihood(data)?);
            }
        }
        Ok(history)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::{bars_and_stripes, with_label_units};

    fn bas_pixels(n: usize) -> Vec<Vec<bool>> {
        bars_and_stripes(n).into_iter().map(|p| p.pixels).collect()
    }

    #[test]
    fn construction_validates() {
        assert!(Rbm::new(0, 2, 0.01, 1).is_err());
        assert!(Rbm::new(2, 0, 0.01, 1).is_err());
        let rbm = Rbm::new(3, 2, 0.01, 1).unwrap();
        assert_eq!(rbm.n_visible(), 3);
        assert_eq!(rbm.n_hidden(), 2);
    }

    #[test]
    fn free_energy_consistent_with_joint_energy() {
        // e^{−F(v)} = Σ_h e^{−E(v,h)}.
        let rbm = Rbm::new(3, 2, 0.5, 2).unwrap();
        let v = vec![true, false, true];
        let mut z_v = 0.0;
        for bits in 0..4u32 {
            let h: Vec<bool> = (0..2).map(|j| bits >> j & 1 == 1).collect();
            z_v += (-rbm.energy(&v, &h)).exp();
        }
        assert!((z_v.ln() - (-rbm.free_energy(&v))).abs() < 1e-10);
    }

    #[test]
    fn probabilities_in_unit_interval() {
        let rbm = Rbm::new(4, 3, 1.0, 3).unwrap();
        let v = vec![true, true, false, false];
        for p in rbm.hidden_probs(&v) {
            assert!((0.0..=1.0).contains(&p));
        }
        let h = vec![true, false, true];
        for p in rbm.visible_probs(&h) {
            assert!((0.0..=1.0).contains(&p));
        }
    }

    #[test]
    fn joint_qubo_matches_energy() {
        let rbm = Rbm::new(3, 2, 0.7, 4).unwrap();
        let q = rbm.joint_qubo().unwrap();
        for vb in 0..8u32 {
            for hb in 0..4u32 {
                let v: Vec<bool> = (0..3).map(|i| vb >> i & 1 == 1).collect();
                let h: Vec<bool> = (0..2).map(|j| hb >> j & 1 == 1).collect();
                let joint: Vec<bool> = v.iter().chain(h.iter()).copied().collect();
                assert!(
                    (rbm.energy(&v, &h) - q.value(&joint)).abs() < 1e-10,
                    "v={vb:03b} h={hb:02b}"
                );
            }
        }
    }

    #[test]
    fn cd_training_improves_likelihood() {
        let data = bas_pixels(2);
        let mut rbm = Rbm::new(4, 6, 0.05, 5).unwrap();
        let before = rbm.exact_log_likelihood(&data).unwrap();
        let config = TrainConfig {
            epochs: 500,
            learning_rate: 0.5,
            weight_decay: 0.0,
        };
        Trainer::cd(1).train(&mut rbm, &data, &config, 1).unwrap();
        let after = rbm.exact_log_likelihood(&data).unwrap();
        assert!(after > before + 0.5, "LL {before} → {after}");
    }

    #[test]
    fn mode_assisted_training_improves_likelihood() {
        let data = bas_pixels(2);
        let mut rbm = Rbm::new(4, 6, 0.05, 5).unwrap();
        let before = rbm.exact_log_likelihood(&data).unwrap();
        let config = TrainConfig {
            epochs: 500,
            learning_rate: 0.5,
            weight_decay: 0.0,
        };
        // Small mode-substitution probability, as in the mode-assisted
        // training literature (large p_mode over-flattens early training).
        Trainer::mode_assisted(0.05, ModeSearch::Exhaustive)
            .train(&mut rbm, &data, &config, 1)
            .unwrap();
        let after = rbm.exact_log_likelihood(&data).unwrap();
        assert!(after > before + 0.5, "LL {before} → {after}");
    }

    #[test]
    fn training_history_tracks_epochs() {
        let data = bas_pixels(2);
        let mut rbm = Rbm::new(4, 3, 0.05, 6).unwrap();
        let config = TrainConfig {
            epochs: 10,
            ..TrainConfig::default()
        };
        let history = Trainer::cd(1).train(&mut rbm, &data, &config, 2).unwrap();
        assert_eq!(history.len(), 10);
    }

    #[test]
    fn train_rejects_bad_data() {
        let mut rbm = Rbm::new(4, 3, 0.05, 6).unwrap();
        let config = TrainConfig::default();
        assert!(Trainer::cd(1).train(&mut rbm, &[], &config, 1).is_err());
        assert!(Trainer::cd(1)
            .train(&mut rbm, &[vec![true; 3]], &config, 1)
            .is_err());
    }

    #[test]
    fn classifier_learns_labels() {
        let patterns = bars_and_stripes(2);
        let labeled = with_label_units(&patterns);
        let mut rbm = Rbm::new(6, 8, 0.05, 7).unwrap();
        let config = TrainConfig {
            epochs: 300,
            learning_rate: 0.3,
            weight_decay: 0.0,
        };
        Trainer::cd(1)
            .train(&mut rbm, &labeled, &config, 3)
            .unwrap();
        let correct = patterns
            .iter()
            .filter(|p| rbm.classify(&p.pixels) == p.is_stripe)
            .count();
        assert!(
            correct * 2 > patterns.len(),
            "classifier below chance: {correct}/{}",
            patterns.len()
        );
    }

    #[test]
    fn reconstruction_error_bounded() {
        let data = bas_pixels(2);
        let rbm = Rbm::new(4, 4, 0.05, 8).unwrap();
        let err = rbm.reconstruction_error(&data, 1);
        assert!((0.0..=1.0).contains(&err));
    }

    #[test]
    fn deterministic_training_per_seed() {
        let data = bas_pixels(2);
        let config = TrainConfig {
            epochs: 5,
            ..TrainConfig::default()
        };
        let mut a = Rbm::new(4, 3, 0.05, 9).unwrap();
        let mut b = Rbm::new(4, 3, 0.05, 9).unwrap();
        Trainer::cd(1).train(&mut a, &data, &config, 4).unwrap();
        Trainer::cd(1).train(&mut b, &data, &config, 4).unwrap();
        assert_eq!(a, b);
    }
}

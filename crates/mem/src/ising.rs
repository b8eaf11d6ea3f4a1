//! Ising spin glasses.
//!
//! Energy convention: `E(s) = −Σ_{(i,j)} J_ij s_i s_j − Σ_i h_i s_i` over
//! spins `s ∈ {−1, +1}`. Provides the model, a simulated-annealing
//! baseline, and the flip-size bookkeeping used to demonstrate the paper's
//! dynamical-long-range-order claim (collective cluster flips, ref. \[56\]).
//!
//! # Example
//!
//! ```
//! use mem::ising::{IsingModel, SimulatedAnnealing, AnnealSchedule};
//!
//! // Two ferromagnetically coupled spins: ground states are ±(1,1).
//! let model = IsingModel::new(2, vec![(0, 1, 1.0)], vec![0.0, 0.0])?;
//! let sa = SimulatedAnnealing::new(AnnealSchedule::default());
//! let result = sa.run(&model, 5);
//! assert!((result.best_energy - (-1.0)).abs() < 1e-12);
//! # Ok::<(), mem::MemError>(())
//! ```

use crate::assignment::Assignment;
use crate::MemError;
use numerics::rng::rng_from_seed;
use numerics::rng::Rng;

/// An Ising model: pairwise couplings and local fields.
#[derive(Debug, Clone, PartialEq)]
pub struct IsingModel {
    n_spins: usize,
    couplings: Vec<(usize, usize, f64)>,
    fields: Vec<f64>,
    /// Adjacency: for each spin, the (coupling index) list touching it.
    adjacency: Vec<Vec<usize>>,
}

impl IsingModel {
    /// Creates a model.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::Formula`] for out-of-range spin indices,
    /// self-couplings, or a field vector of the wrong length.
    pub fn new(
        n_spins: usize,
        couplings: Vec<(usize, usize, f64)>,
        fields: Vec<f64>,
    ) -> Result<Self, MemError> {
        if n_spins == 0 {
            return Err(MemError::Formula {
                reason: "ising model needs at least one spin".into(),
            });
        }
        if fields.len() != n_spins {
            return Err(MemError::Formula {
                reason: format!(
                    "field vector has {} entries for {n_spins} spins",
                    fields.len()
                ),
            });
        }
        for &(a, b, _) in &couplings {
            if a >= n_spins || b >= n_spins {
                return Err(MemError::Formula {
                    reason: format!("coupling ({a},{b}) out of range"),
                });
            }
            if a == b {
                return Err(MemError::Formula {
                    reason: format!("self-coupling on spin {a}"),
                });
            }
        }
        let mut adjacency = vec![Vec::new(); n_spins];
        for (ci, &(a, b, _)) in couplings.iter().enumerate() {
            adjacency[a].push(ci);
            adjacency[b].push(ci);
        }
        Ok(IsingModel {
            n_spins,
            couplings,
            fields,
            adjacency,
        })
    }

    /// Number of spins.
    #[must_use]
    pub fn n_spins(&self) -> usize {
        self.n_spins
    }

    /// The couplings `(i, j, J_ij)`.
    #[must_use]
    pub fn couplings(&self) -> &[(usize, usize, f64)] {
        &self.couplings
    }

    /// Energy of a ±1 spin configuration.
    ///
    /// # Panics
    ///
    /// Panics when `spins.len() != n_spins`.
    #[must_use]
    pub fn energy_spins(&self, spins: &[i8]) -> f64 {
        assert_eq!(spins.len(), self.n_spins);
        let mut e = 0.0;
        for &(a, b, j) in &self.couplings {
            e -= j * f64::from(spins[a]) * f64::from(spins[b]);
        }
        for (i, &h) in self.fields.iter().enumerate() {
            e -= h * f64::from(spins[i]);
        }
        e
    }

    /// Energy of a boolean assignment (`true ↦ +1`).
    #[must_use]
    pub fn energy(&self, assignment: &Assignment) -> f64 {
        self.energy_spins(&assignment.to_spins())
    }

    /// Energy change from flipping spin `i` in `spins`.
    #[must_use]
    pub fn flip_delta(&self, spins: &[i8], i: usize) -> f64 {
        let mut delta = 2.0 * self.fields[i] * f64::from(spins[i]);
        for &ci in &self.adjacency[i] {
            let (a, b, j) = self.couplings[ci];
            let other = if a == i { b } else { a };
            delta += 2.0 * j * f64::from(spins[i]) * f64::from(spins[other]);
        }
        delta
    }
}

/// Geometric annealing schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnnealSchedule {
    /// Starting temperature.
    pub t_start: f64,
    /// Final temperature.
    pub t_end: f64,
    /// Monte-Carlo sweeps (each sweep attempts `n_spins` flips).
    pub sweeps: usize,
}

impl Default for AnnealSchedule {
    fn default() -> Self {
        AnnealSchedule {
            t_start: 3.0,
            t_end: 0.05,
            sweeps: 400,
        }
    }
}

/// Result of a simulated-annealing run.
#[derive(Debug, Clone, PartialEq)]
pub struct AnnealResult {
    /// The best configuration found.
    pub best: Assignment,
    /// Its energy.
    pub best_energy: f64,
    /// Spin flips accepted in total.
    pub accepted_flips: u64,
    /// Sweeps executed.
    pub sweeps: usize,
}

/// The classical baseline: single-spin-flip Metropolis annealing.
///
/// Flips are single spins by construction — the point of contrast with the
/// DMM, whose trajectories flip whole clusters between checkpoints (the
/// paper's DLRO discussion).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimulatedAnnealing {
    schedule: AnnealSchedule,
}

impl SimulatedAnnealing {
    /// Creates an annealer.
    #[must_use]
    pub fn new(schedule: AnnealSchedule) -> Self {
        SimulatedAnnealing { schedule }
    }

    /// Runs annealing from a random start.
    #[must_use]
    pub fn run(&self, model: &IsingModel, seed: u64) -> AnnealResult {
        let mut rng = rng_from_seed(seed);
        let n = model.n_spins();
        let mut spins = Assignment::random(n, &mut rng).to_spins();
        let mut energy = model.energy_spins(&spins);
        let mut best = spins.clone();
        let mut best_energy = energy;
        let mut accepted = 0u64;

        let sweeps = self.schedule.sweeps.max(1);
        for sweep in 0..sweeps {
            // Geometric interpolation of the temperature.
            let frac = sweep as f64 / sweeps as f64;
            let t =
                self.schedule.t_start * (self.schedule.t_end / self.schedule.t_start).powf(frac);
            for _ in 0..n {
                let i = rng.gen_range(0..n);
                let delta = model.flip_delta(&spins, i);
                if delta <= 0.0 || rng.gen::<f64>() < (-delta / t.max(1e-12)).exp() {
                    spins[i] = -spins[i];
                    energy += delta;
                    accepted += 1;
                    if energy < best_energy {
                        best_energy = energy;
                        best = spins.clone();
                    }
                }
            }
        }
        AnnealResult {
            best: Assignment::from_bools(&best.iter().map(|&s| s > 0).collect::<Vec<_>>()),
            best_energy,
            accepted_flips: accepted,
            sweeps,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ferro_chain(n: usize) -> IsingModel {
        let couplings = (1..n).map(|i| (i - 1, i, 1.0)).collect();
        IsingModel::new(n, couplings, vec![0.0; n]).unwrap()
    }

    #[test]
    fn energy_of_aligned_chain() {
        let m = ferro_chain(4);
        assert_eq!(m.energy_spins(&[1, 1, 1, 1]), -3.0);
        assert_eq!(m.energy_spins(&[-1, -1, -1, -1]), -3.0);
        assert_eq!(m.energy_spins(&[1, -1, 1, -1]), 3.0);
    }

    #[test]
    fn fields_break_symmetry() {
        let m = IsingModel::new(1, vec![], vec![2.0]).unwrap();
        assert_eq!(m.energy_spins(&[1]), -2.0);
        assert_eq!(m.energy_spins(&[-1]), 2.0);
    }

    #[test]
    fn flip_delta_consistent_with_energy() {
        let m = ferro_chain(5);
        let mut rng = rng_from_seed(1);
        for _ in 0..50 {
            let a = Assignment::random(5, &mut rng);
            let mut spins = a.to_spins();
            let i = rng.gen_range(0..5);
            let before = m.energy_spins(&spins);
            let delta = m.flip_delta(&spins, i);
            spins[i] = -spins[i];
            let after = m.energy_spins(&spins);
            assert!((after - before - delta).abs() < 1e-9);
        }
    }

    #[test]
    fn validation() {
        assert!(IsingModel::new(0, vec![], vec![]).is_err());
        assert!(IsingModel::new(2, vec![(0, 2, 1.0)], vec![0.0, 0.0]).is_err());
        assert!(IsingModel::new(2, vec![(1, 1, 1.0)], vec![0.0, 0.0]).is_err());
        assert!(IsingModel::new(2, vec![], vec![0.0]).is_err());
    }

    #[test]
    fn annealing_finds_ferro_ground_state() {
        let m = ferro_chain(10);
        let sa = SimulatedAnnealing::new(AnnealSchedule::default());
        let result = sa.run(&m, 2);
        assert!((result.best_energy - (-9.0)).abs() < 1e-12, "{result:?}");
    }

    #[test]
    fn annealing_deterministic_per_seed() {
        let m = ferro_chain(6);
        let sa = SimulatedAnnealing::new(AnnealSchedule::default());
        assert_eq!(sa.run(&m, 5).best_energy, sa.run(&m, 5).best_energy);
    }

    #[test]
    fn annealing_handles_frustration() {
        // Antiferromagnetic triangle: ground energy is −1 (one bond must be
        // violated).
        let m = IsingModel::new(
            3,
            vec![(0, 1, -1.0), (1, 2, -1.0), (0, 2, -1.0)],
            vec![0.0; 3],
        )
        .unwrap();
        let sa = SimulatedAnnealing::new(AnnealSchedule::default());
        let result = sa.run(&m, 3);
        assert!((result.best_energy - (-1.0)).abs() < 1e-12, "{result:?}");
    }
}

//! Quadratic unconstrained binary optimization (QUBO) and its reductions.
//!
//! The bridge between the RBM mode-search ([`crate::rbm`]) and the DMM:
//! minimizing an RBM's joint energy over binary units is a QUBO, a QUBO is
//! an Ising problem, and both reduce *exactly* to weighted MaxSAT (solved
//! by [`crate::maxsat::MaxSatDmm`]). The reduction used for a negative
//! quadratic coefficient is the standard rewrite
//! `−w·x_i·x_j = −w·x_i + w·x_i·(1−x_j)`, which yields the soft clauses
//! `(x_i)` and `(¬x_i ∨ x_j)` of weight `w` plus a constant.
//!
//! [`Qubo::minimize_dmm`] is the memcomputing minimizer the serving stack
//! runs: the best of [`MaxSatDmmParams::restarts`] short MaxSAT-DMM
//! trajectories, each polished by a greedy descent (the digital output
//! stage). Restart 0 runs from the caller's seed, the others from a
//! [`SeedStream`] over it. [`Qubo::minimize_dmm_counted`] also reports the
//! steps integrated, which the memcomputing backend charges as device
//! time.
//!
//! # Example
//!
//! ```
//! use mem::qubo::Qubo;
//!
//! // minimize x0 + x1 − 3·x0·x1  → optimum (1,1) with value −1.
//! let mut q = Qubo::new(2)?;
//! q.add_linear(0, 1.0)?;
//! q.add_linear(1, 1.0)?;
//! q.add_quadratic(0, 1, -3.0)?;
//! let (best, value) = q.minimize_exhaustive()?;
//! assert_eq!(best, vec![true, true]);
//! assert_eq!(value, -1.0);
//! # Ok::<(), mem::MemError>(())
//! ```

use crate::cnf::{Clause, Literal};
use crate::maxsat::{MaxSatDmm, MaxSatDmmParams, WeightedFormula};
use crate::MemError;
use numerics::rng::SeedStream;
use std::collections::btree_map::{BTreeMap, Entry};

/// What [`Qubo::minimize_dmm_counted`] found.
#[derive(Debug, Clone, PartialEq)]
pub struct DmmMinimum {
    /// The lowest-energy polished configuration over the restarts.
    pub bits: Vec<bool>,
    /// Its objective value.
    pub energy: f64,
    /// Steps integrated, summed over the restarts.
    pub steps: u64,
}

/// A QUBO instance: minimize `Σ_i c_i x_i + Σ_{i<j} q_ij x_i x_j` over
/// `x ∈ {0,1}^n`.
#[derive(Debug, Clone, PartialEq)]
pub struct Qubo {
    n: usize,
    linear: Vec<f64>,
    /// Each pair once, `i < j`, in order of first occurrence.
    quadratic: Vec<(usize, usize, f64)>,
    /// Where each pair sits in `quadratic`.
    index: BTreeMap<(usize, usize), usize>,
}

impl Qubo {
    /// Creates an empty QUBO over `n` variables.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::Parameter`] for `n == 0`.
    pub fn new(n: usize) -> Result<Self, MemError> {
        if n == 0 {
            return Err(MemError::Parameter {
                name: "n",
                reason: "QUBO needs at least one variable",
            });
        }
        Ok(Qubo {
            n,
            linear: vec![0.0; n],
            quadratic: Vec::new(),
            index: BTreeMap::new(),
        })
    }

    /// Number of variables.
    #[must_use]
    pub(crate) fn n_vars(&self) -> usize {
        self.n
    }

    /// Adds to a linear coefficient.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::Parameter`] for an out-of-range index or
    /// non-finite coefficient.
    pub fn add_linear(&mut self, i: usize, c: f64) -> Result<(), MemError> {
        if i >= self.n {
            return Err(MemError::Parameter {
                name: "i",
                reason: "variable index out of range",
            });
        }
        if !c.is_finite() {
            return Err(MemError::Parameter {
                name: "c",
                reason: "coefficient must be finite",
            });
        }
        self.linear[i] += c;
        Ok(())
    }

    /// Adds to a quadratic coefficient (`i != j`; stored with `i < j`). A
    /// repeated pair, in either orientation, is summed into its first
    /// occurrence's term, in the order the additions arrive.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::Parameter`] for bad indices or a non-finite
    /// coefficient.
    pub fn add_quadratic(&mut self, i: usize, j: usize, q: f64) -> Result<(), MemError> {
        if i >= self.n || j >= self.n || i == j {
            return Err(MemError::Parameter {
                name: "i/j",
                reason: "need two distinct in-range variables",
            });
        }
        if !q.is_finite() {
            return Err(MemError::Parameter {
                name: "q",
                reason: "coefficient must be finite",
            });
        }
        let key = (i.min(j), i.max(j));
        match self.index.entry(key) {
            Entry::Occupied(at) => self.quadratic[*at.get()].2 += q,
            Entry::Vacant(at) => {
                at.insert(self.quadratic.len());
                self.quadratic.push((key.0, key.1, q));
            }
        }
        Ok(())
    }

    /// The objective value of a binary configuration.
    ///
    /// # Panics
    ///
    /// Panics when `x.len() != n`.
    #[must_use]
    pub fn value(&self, x: &[bool]) -> f64 {
        assert_eq!(x.len(), self.n);
        let mut v = 0.0;
        for (i, &c) in self.linear.iter().enumerate() {
            if x[i] {
                v += c;
            }
        }
        for &(i, j, q) in &self.quadratic {
            if x[i] && x[j] {
                v += q;
            }
        }
        v
    }

    /// Exhaustive minimization (only for `n ≤ 24`).
    ///
    /// # Errors
    ///
    /// Returns [`MemError::Parameter`] when `n > 24`.
    pub fn minimize_exhaustive(&self) -> Result<(Vec<bool>, f64), MemError> {
        if self.n > 24 {
            return Err(MemError::Parameter {
                name: "n",
                reason: "exhaustive minimization limited to 24 variables",
            });
        }
        let mut best = vec![false; self.n];
        let mut best_value = f64::INFINITY;
        for bits in 0..(1u32 << self.n) {
            let x: Vec<bool> = (0..self.n).map(|i| bits >> i & 1 == 1).collect();
            let v = self.value(&x);
            if v < best_value {
                best_value = v;
                best = x;
            }
        }
        Ok((best, best_value))
    }

    /// Greedy 1-flip descent from a given start.
    #[must_use]
    pub fn minimize_greedy(&self, start: &[bool]) -> (Vec<bool>, f64) {
        let mut x = start.to_vec();
        let mut value = self.value(&x);
        loop {
            let mut improved = false;
            for i in 0..self.n {
                x[i] = !x[i];
                let v = self.value(&x);
                if v < value - 1e-15 {
                    value = v;
                    improved = true;
                } else {
                    x[i] = !x[i];
                }
            }
            if !improved {
                return (x, value);
            }
        }
    }

    /// The exact weighted-MaxSAT encoding: returns the formula plus the
    /// constant offset such that
    /// `value(x) = violation_cost(x) + offset` for every `x`.
    ///
    /// # Errors
    ///
    /// Propagates formula-construction errors.
    pub fn to_weighted_maxsat(&self) -> Result<(WeightedFormula, f64), MemError> {
        let mut clauses: Vec<(Clause, f64)> = Vec::new();
        let mut offset = 0.0;
        let add = |clause: Clause, w: f64, clauses: &mut Vec<(Clause, f64)>| {
            if w > 1e-15 {
                clauses.push((clause, w));
            }
        };
        for (i, &c) in self.linear.iter().enumerate() {
            if c > 0.0 {
                // Pay c when x_i = 1 → soft clause (¬x_i) of weight c.
                add(Clause::new(vec![Literal::negative(i)])?, c, &mut clauses);
            } else if c < 0.0 {
                // Gain |c| when x_i = 1 → pay |c| when x_i = 0, offset −|c|.
                add(Clause::new(vec![Literal::positive(i)])?, -c, &mut clauses);
                offset += c;
            }
        }
        for &(i, j, q) in &self.quadratic {
            if q > 0.0 {
                // Pay q when both set → (¬x_i ∨ ¬x_j) weight q.
                add(
                    Clause::new(vec![Literal::negative(i), Literal::negative(j)])?,
                    q,
                    &mut clauses,
                );
            } else if q < 0.0 {
                // −w·x_i·x_j = −w·x_i + w·x_i·(1−x_j), w = |q|:
                //   (x_i) weight w, (¬x_i ∨ x_j) weight w, offset −w.
                let w = -q;
                add(Clause::new(vec![Literal::positive(i)])?, w, &mut clauses);
                add(
                    Clause::new(vec![Literal::negative(i), Literal::positive(j)])?,
                    w,
                    &mut clauses,
                );
                offset -= w;
            }
        }
        Ok((WeightedFormula::new(self.n, clauses)?, offset))
    }

    /// Minimizes via the DMM weighted-MaxSAT solver: `params.restarts`
    /// trajectories, each polished by a greedy descent, keeping the
    /// lowest energy (ties go to the earliest restart).
    ///
    /// # Errors
    ///
    /// Same as [`Qubo::minimize_dmm_counted`].
    pub fn minimize_dmm(
        &self,
        params: MaxSatDmmParams,
        seed: u64,
    ) -> Result<(Vec<bool>, f64), MemError> {
        let found = self.minimize_dmm_counted(params, seed)?;
        Ok((found.bits, found.energy))
    }

    /// [`Qubo::minimize_dmm`], with the steps it integrated.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::Parameter`] for `params.restarts == 0` and
    /// propagates reduction and solver errors.
    pub fn minimize_dmm_counted(
        &self,
        params: MaxSatDmmParams,
        seed: u64,
    ) -> Result<DmmMinimum, MemError> {
        if params.restarts == 0 {
            return Err(MemError::Parameter {
                name: "restarts",
                reason: "need at least one trajectory",
            });
        }
        let (wf, _offset) = self.to_weighted_maxsat()?;
        if wf.formula().is_empty() {
            // Objective is constant: all-false is optimal.
            let bits = vec![false; self.n];
            let energy = self.value(&bits);
            return Ok(DmmMinimum {
                bits,
                energy,
                steps: 0,
            });
        }
        let solver = MaxSatDmm::new(params);
        let mut seeds = SeedStream::new(seed);
        let mut best = DmmMinimum {
            bits: Vec::new(),
            energy: f64::INFINITY,
            steps: 0,
        };
        for restart in 0..params.restarts {
            let run_seed = if restart == 0 {
                seed
            } else {
                seeds.next_seed()
            };
            let out = solver.solve(&wf, run_seed)?;
            best.steps += out.work;
            let (bits, energy) = self.minimize_greedy(&out.best.to_bools());
            if restart == 0 || energy < best.energy {
                best.bits = bits;
                best.energy = energy;
            }
        }
        Ok(best)
    }

    /// Converts to an Ising model (`x_i = (1 + s_i)/2`), returning the model
    /// and the constant offset so that
    /// `value(x) = ising_energy(s) + offset`.
    ///
    /// # Errors
    ///
    /// Propagates Ising-model construction errors.
    pub fn to_ising(&self) -> Result<(crate::ising::IsingModel, f64), MemError> {
        // value = Σ c_i (1+s_i)/2 + Σ q_ij (1+s_i)(1+s_j)/4
        //       = const + Σ_i [c_i/2 + Σ_j q_ij/4]·s_i + Σ q_ij/4 · s_i s_j
        // Ising convention E = −Σ J s s − Σ h s ⇒ J_ij = −q_ij/4,
        // h_i = −c_i/2 − Σ_j q_ij/4.
        let mut h = vec![0.0; self.n];
        let mut offset = 0.0;
        for (i, &c) in self.linear.iter().enumerate() {
            h[i] -= c / 2.0;
            offset += c / 2.0;
        }
        let mut couplings = Vec::with_capacity(self.quadratic.len());
        for &(i, j, q) in &self.quadratic {
            couplings.push((i, j, -q / 4.0));
            h[i] -= q / 4.0;
            h[j] -= q / 4.0;
            offset += q / 4.0;
        }
        Ok((crate::ising::IsingModel::new(self.n, couplings, h)?, offset))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assignment::Assignment;
    use numerics::rng::rng_from_seed;
    use numerics::rng::Rng;

    fn random_qubo(n: usize, seed: u64) -> Qubo {
        let mut rng = rng_from_seed(seed);
        let mut q = Qubo::new(n).unwrap();
        for i in 0..n {
            q.add_linear(i, rng.gen_range(-1.0..1.0)).unwrap();
        }
        for i in 0..n {
            for j in i + 1..n {
                if rng.gen::<f64>() < 0.5 {
                    q.add_quadratic(i, j, rng.gen_range(-1.0..1.0)).unwrap();
                }
            }
        }
        q
    }

    #[test]
    fn value_evaluation() {
        let mut q = Qubo::new(3).unwrap();
        q.add_linear(0, 2.0).unwrap();
        q.add_quadratic(0, 1, -1.5).unwrap();
        assert_eq!(q.value(&[false, false, false]), 0.0);
        assert_eq!(q.value(&[true, false, false]), 2.0);
        assert_eq!(q.value(&[true, true, false]), 0.5);
    }

    /// [`Qubo::add_quadratic`]'s bookkeeping as it was: a scan of every
    /// stored term for the pair.
    fn add_quadratic_by_scan(terms: &mut Vec<(usize, usize, f64)>, i: usize, j: usize, q: f64) {
        let key = (i.min(j), i.max(j));
        if let Some(entry) = terms.iter_mut().find(|(a, b, _)| (*a, *b) == key) {
            entry.2 += q;
        } else {
            terms.push((key.0, key.1, q));
        }
    }

    #[test]
    fn indexed_terms_equal_the_scan() {
        // Few variables, many terms: most pairs repeat, in both orientations.
        let mut rng = rng_from_seed(33);
        for round in 0..50 {
            let n = 2 + round % 9;
            let mut q = Qubo::new(n).unwrap();
            let mut scanned = Vec::new();
            for _ in 0..4 * n * n {
                let (i, j) = (rng.gen_range(0..n), rng.gen_range(0..n));
                if i == j {
                    continue;
                }
                let c = rng.gen_range(-1.0..1.0);
                q.add_quadratic(i, j, c).unwrap();
                add_quadratic_by_scan(&mut scanned, i, j, c);
            }
            assert_eq!(q.quadratic.len(), scanned.len(), "round {round}");
            for (got, want) in q.quadratic.iter().zip(&scanned) {
                assert_eq!((got.0, got.1), (want.0, want.1), "round {round}");
                assert_eq!(got.2.to_bits(), want.2.to_bits(), "round {round}");
            }
        }
    }

    #[test]
    fn quadratic_accumulates() {
        let mut q = Qubo::new(2).unwrap();
        q.add_quadratic(0, 1, 1.0).unwrap();
        q.add_quadratic(1, 0, 1.0).unwrap();
        assert_eq!(q.value(&[true, true]), 2.0);
    }

    #[test]
    fn validation() {
        let mut q = Qubo::new(2).unwrap();
        assert!(Qubo::new(0).is_err());
        assert!(q.add_linear(5, 1.0).is_err());
        assert!(q.add_quadratic(0, 0, 1.0).is_err());
        assert!(q.add_linear(0, f64::INFINITY).is_err());
    }

    #[test]
    fn maxsat_reduction_exact_on_all_configs() {
        for seed in 0..5 {
            let q = random_qubo(6, seed);
            let (wf, offset) = q.to_weighted_maxsat().unwrap();
            for bits in 0..(1u32 << 6) {
                let x: Vec<bool> = (0..6).map(|i| bits >> i & 1 == 1).collect();
                let direct = q.value(&x);
                let via = wf.violation_cost(&Assignment::from_bools(&x)) + offset;
                assert!(
                    (direct - via).abs() < 1e-9,
                    "seed {seed} bits {bits:06b}: {direct} vs {via}"
                );
            }
        }
    }

    #[test]
    fn ising_reduction_exact_on_all_configs() {
        for seed in 0..5 {
            let q = random_qubo(5, 100 + seed);
            let (model, offset) = q.to_ising().unwrap();
            for bits in 0..(1u32 << 5) {
                let x: Vec<bool> = (0..5).map(|i| bits >> i & 1 == 1).collect();
                let direct = q.value(&x);
                let via = model.energy(&Assignment::from_bools(&x)) + offset;
                assert!(
                    (direct - via).abs() < 1e-9,
                    "seed {seed} bits {bits:05b}: {direct} vs {via}"
                );
            }
        }
    }

    #[test]
    fn exhaustive_matches_bruteforce_definition() {
        let q = random_qubo(8, 3);
        let (best, value) = q.minimize_exhaustive().unwrap();
        assert_eq!(q.value(&best), value);
        // No configuration beats it.
        for bits in 0..(1u32 << 8) {
            let x: Vec<bool> = (0..8).map(|i| bits >> i & 1 == 1).collect();
            assert!(q.value(&x) >= value - 1e-12);
        }
    }

    #[test]
    fn greedy_descent_never_worse_than_start() {
        let q = random_qubo(10, 4);
        let start = vec![false; 10];
        let (_, v) = q.minimize_greedy(&start);
        assert!(v <= q.value(&start) + 1e-12);
    }

    #[test]
    fn dmm_minimization_finds_optimum_on_small_qubos() {
        for seed in 0..3 {
            let q = random_qubo(6, 200 + seed);
            let (_, exact) = q.minimize_exhaustive().unwrap();
            let (_, found) = q.minimize_dmm(MaxSatDmmParams::default(), seed).unwrap();
            assert!(
                found <= exact + 1e-9,
                "seed {seed}: dmm {found} vs exact {exact}"
            );
        }
    }

    /// One trajectory plus its polish: [`Qubo::minimize_dmm`] as it ran
    /// before restarts.
    fn single_trajectory(q: &Qubo, params: MaxSatDmmParams, seed: u64) -> DmmMinimum {
        let (wf, _) = q.to_weighted_maxsat().unwrap();
        let out = MaxSatDmm::new(params).solve(&wf, seed).unwrap();
        let (bits, energy) = q.minimize_greedy(&out.best.to_bools());
        DmmMinimum {
            bits,
            energy,
            steps: out.work,
        }
    }

    #[test]
    fn one_restart_is_the_single_trajectory() {
        // E7's 4 000 steps, the 30 000 served before restarts, E8's 100 000.
        for (i, max_steps) in [4_000u64, 30_000, 100_000].into_iter().enumerate() {
            let mut params = MaxSatDmmParams::default();
            params.dynamics.max_steps = max_steps;
            params.restarts = 1;
            for seed in 0..2 {
                let q = random_qubo(10, 300 + 10 * i as u64 + seed);
                let got = q.minimize_dmm_counted(params, seed).unwrap();
                let want = single_trajectory(&q, params, seed);
                assert_eq!(got, want, "{max_steps} steps, seed {seed}");
                assert_eq!(got.energy.to_bits(), want.energy.to_bits());
            }
        }
    }

    #[test]
    fn restarts_keep_the_first_lowest_energy_and_sum_the_steps() {
        let mut params = MaxSatDmmParams::default();
        params.dynamics.max_steps = 100;
        params.restarts = 12;
        let mut later_won = false;
        for seed in 0..4 {
            let q = random_qubo(14, 400 + seed);
            let mut seeds = SeedStream::new(seed);
            let runs: Vec<DmmMinimum> = (0..params.restarts)
                .map(|r| {
                    let run_seed = if r == 0 { seed } else { seeds.next_seed() };
                    single_trajectory(&q, params, run_seed)
                })
                .collect();
            let mut want = runs[0].clone();
            for run in &runs[1..] {
                if run.energy < want.energy {
                    want = run.clone();
                    later_won = true;
                }
            }
            want.steps = runs.iter().map(|r| r.steps).sum();
            assert_eq!(q.minimize_dmm_counted(params, seed).unwrap(), want);
        }
        assert!(later_won, "some restart after the first must win");
    }

    #[test]
    fn zero_restarts_refused() {
        let mut params = MaxSatDmmParams::default();
        params.restarts = 0;
        assert!(random_qubo(4, 1).minimize_dmm(params, 0).is_err());
    }

    #[test]
    fn exhaustive_limit_enforced() {
        let q = Qubo::new(30).unwrap();
        assert!(q.minimize_exhaustive().is_err());
    }
}

//! Weighted MaxSAT via weighted SOLG dynamics.
//!
//! The paper's ref. \[54\] shows DMM simulations "outperform specialized
//! software specifically designed to tackle maximum satisfiability
//! problems". Weighted MaxSAT also carries the QUBO/Ising reductions used
//! by the RBM mode-search ([`crate::qubo`], [`crate::rbm`]).
//!
//! The DMM side generalizes the SAT dynamics by scaling every clause's
//! drive with its weight; since a MaxSAT optimum may leave clauses violated
//! there is no terminating "satisfied" state — the solver runs a step
//! budget and reports the best (lowest weighted-violation) assignment its
//! trajectory visited, stopping early only at cost 0. The state a run
//! ends in is judged too, also when the budget is not a multiple of the
//! checkpoint cadence.
//!
//! [`MaxSatDmm::solve`] is one trajectory. [`MaxSatDmmParams::restarts`]
//! is read by [`crate::qubo::Qubo::minimize_dmm`], which keeps the best of
//! that many short trajectories: a QUBO's trajectory stops improving long
//! before a long budget runs out, and a fresh start finds the optimum
//! more often than the same steps spent on one run. The restarts run in
//! lockstep, as the lanes of one integration, each judged and stopped on
//! its own; a lane's outcome is `solve` at its seed, bit for bit.
//!
//! The trajectory is [`crate::dmm`]'s one integrator (`crate::solg`'s
//! clause step, the noise pass, the checkpoint cadence); this module
//! supplies the weights and what a checkpoint does. SAT is the same run at
//! weight 1.
//!
//! # Example
//!
//! ```
//! use mem::cnf::{Clause, Literal};
//! use mem::maxsat::{WeightedFormula, MaxSatDmm, MaxSatDmmParams};
//!
//! // Conflicting unit clauses with different weights: keep the heavy one.
//! let wf = WeightedFormula::new(1, vec![
//!     (Clause::new(vec![Literal::positive(0)])?, 5.0),
//!     (Clause::new(vec![Literal::negative(0)])?, 1.0),
//! ])?;
//! let out = MaxSatDmm::new(MaxSatDmmParams::default()).solve(&wf, 1)?;
//! assert!(out.best.value(0), "heavy clause should win");
//! assert!((out.best_cost - 1.0).abs() < 1e-12);
//! # Ok::<(), mem::MemError>(())
//! ```

use crate::assignment::Assignment;
use crate::cnf::{Clause, Formula};
use crate::dmm::{integrate, DmmParams};
use crate::MemError;

/// A CNF formula with positive clause weights.
#[derive(Debug, Clone, PartialEq)]
pub struct WeightedFormula {
    formula: Formula,
    weights: Vec<f64>,
}

impl WeightedFormula {
    /// Creates a weighted formula.
    ///
    /// # Errors
    ///
    /// * Propagates [`Formula::new`] validation.
    /// * [`MemError::Parameter`] for non-positive or non-finite weights.
    pub fn new(n_vars: usize, clauses: Vec<(Clause, f64)>) -> Result<Self, MemError> {
        for (_, w) in &clauses {
            if !(w.is_finite() && *w > 0.0) {
                return Err(MemError::Parameter {
                    name: "weight",
                    reason: "clause weights must be positive and finite",
                });
            }
        }
        let (cs, weights): (Vec<Clause>, Vec<f64>) = clauses.into_iter().unzip();
        Ok(WeightedFormula {
            formula: Formula::new(n_vars, cs)?,
            weights,
        })
    }

    /// Wraps an unweighted formula with unit weights.
    #[must_use]
    pub fn uniform(formula: Formula) -> Self {
        let weights = vec![1.0; formula.len()];
        WeightedFormula { formula, weights }
    }

    /// The underlying formula.
    #[must_use]
    pub(crate) fn formula(&self) -> &Formula {
        &self.formula
    }

    /// The clause weights.
    #[must_use]
    pub(crate) fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Total weight of clauses violated by an assignment (the MaxSAT cost).
    /// Folds from `+0.0`, not `Sum`'s `-0.0`, so a satisfying assignment
    /// costs `+0.0`; any non-empty sum is the same either way.
    #[must_use]
    pub fn violation_cost(&self, assignment: &Assignment) -> f64 {
        self.formula
            .clauses()
            .iter()
            .zip(&self.weights)
            .filter(|(c, _)| !c.is_satisfied(assignment))
            .fold(0.0, |cost, (_, w)| cost + w)
    }
}

/// Parameters of the weighted-MaxSAT DMM. The default is the schedule
/// the memcomputing backend serves QUBOs with: 20 trajectories of 250
/// steps each.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MaxSatDmmParams {
    /// Underlying SOLG dynamics parameters; `max_steps` is the budget of
    /// one trajectory.
    pub dynamics: DmmParams,
    /// Trajectories [`crate::qubo::Qubo::minimize_dmm`] runs, each from
    /// its own seed, keeping the best. [`MaxSatDmm::solve`] runs one.
    pub restarts: u32,
}

impl Default for MaxSatDmmParams {
    fn default() -> Self {
        let mut dynamics = DmmParams::default();
        dynamics.max_steps = 250;
        MaxSatDmmParams {
            dynamics,
            restarts: 20,
        }
    }
}

/// Result of a MaxSAT optimization run.
#[derive(Debug, Clone, PartialEq)]
pub struct MaxSatOutcome {
    /// The best assignment visited.
    pub best: Assignment,
    /// Its weighted violation cost.
    pub best_cost: f64,
    /// Steps integrated.
    pub work: u64,
}

/// The weighted-MaxSAT DMM solver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MaxSatDmm {
    params: MaxSatDmmParams,
}

impl MaxSatDmm {
    /// Creates a solver.
    #[must_use]
    pub fn new(params: MaxSatDmmParams) -> Self {
        MaxSatDmm { params }
    }

    /// Integrates one trajectory of the weighted SOLG dynamics for the
    /// step budget, tracking the best thresholded assignment visited from
    /// the seeded start on, and stops early once that costs 0.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::Parameter`] for invalid dynamics parameters.
    pub fn solve(&self, wf: &WeightedFormula, seed: u64) -> Result<MaxSatOutcome, MemError> {
        let mut outcomes = self.solve_lanes(wf, &[seed])?;
        Ok(outcomes.remove(0))
    }

    /// [`MaxSatDmm::solve`] at every seed, the trajectories run in
    /// lockstep: outcome `k` is `solve(wf, seeds[k])`, bit for bit, each
    /// judged and stopped on its own.
    pub(crate) fn solve_lanes(
        &self,
        wf: &WeightedFormula,
        seeds: &[u64],
    ) -> Result<Vec<MaxSatOutcome>, MemError> {
        let p = &self.params.dynamics;
        p.validate()?;
        let n = wf.formula().n_vars();
        // Normalize weights so the dynamics' rates keep their usual scale.
        let w_max = wf
            .weights()
            .iter()
            .cloned()
            .fold(f64::MIN, f64::max)
            .max(1e-12);
        let mut outcomes: Vec<MaxSatOutcome> = seeds
            .iter()
            .map(|_| MaxSatOutcome {
                best: Assignment::new_false(n),
                best_cost: f64::INFINITY,
                work: 0,
            })
            .collect();
        // Each lane's checkpoint thresholds its voltages into its own buffer.
        let mut current: Vec<Assignment> = seeds.iter().map(|_| Assignment::new_false(n)).collect();
        // Weighted memory dynamics: heavier clauses escalate faster.
        let weights = wf.weights().iter().map(|w| w / w_max);
        let runs = integrate(p, wf.formula(), weights, seeds, |lane, steps, v| {
            let (out, current) = (&mut outcomes[lane], &mut current[lane]);
            current.set_from_voltages(v);
            let cost = wf.violation_cost(current);
            // The seeded start is the first best.
            if steps == 0 || cost < out.best_cost {
                out.best_cost = cost;
                std::mem::swap(&mut out.best, current);
            }
            !(out.best_cost > 0.0)
        });
        for (out, run) in outcomes.iter_mut().zip(runs) {
            out.work = run.steps;
        }
        Ok(outcomes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cnf::Literal;
    use crate::dmm::{ALPHA, BETA, DELTA, DT, EPSILON, GAMMA};
    use crate::generators::planted_3sat;
    use numerics::rng::{rng_from_seed, sample_normal, Rng};

    fn conflicting_units() -> WeightedFormula {
        WeightedFormula::new(
            2,
            vec![
                (Clause::new(vec![Literal::positive(0)]).unwrap(), 4.0),
                (Clause::new(vec![Literal::negative(0)]).unwrap(), 1.0),
                (Clause::new(vec![Literal::positive(1)]).unwrap(), 2.0),
            ],
        )
        .unwrap()
    }

    /// Widths 1 to 5 under weights other than 1: every arm of the clause
    /// step, weighted. Two contradicting unit clauses keep the cost above
    /// zero, so the whole budget runs.
    fn contradicting(rng: &mut impl Rng) -> WeightedFormula {
        let mut clauses = crate::dmm::tests::mixed_widths(30, 100, 23)
            .clauses()
            .to_vec();
        for literal in [Literal::positive(0), Literal::negative(0)] {
            clauses.push(Clause::new(vec![literal]).unwrap());
        }
        let weighted = clauses
            .into_iter()
            .map(|clause| (clause, rng.gen_range(0.05..3.0)))
            .collect();
        WeightedFormula::new(30, weighted).unwrap()
    }

    /// [`MaxSatDmm::solve`] as it ran on one `ClauseDynamics` per clause.
    fn definitional_solve(p: &DmmParams, wf: &WeightedFormula, seed: u64) -> MaxSatOutcome {
        use crate::solg::{tests::definitional_drive, ClauseDynamics};
        let formula = wf.formula();
        let (n, m) = (formula.n_vars(), formula.len());
        let w_max = wf
            .weights()
            .iter()
            .cloned()
            .fold(f64::MIN, f64::max)
            .max(1e-12);
        let weights: Vec<f64> = wf.weights().iter().map(|w| w / w_max).collect();
        let clauses: Vec<ClauseDynamics> =
            formula.clauses().iter().map(ClauseDynamics::new).collect();
        let xl_max = 1e4 * (m.max(1) as f64);
        let mut rng = rng_from_seed(seed);
        let mut v: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let mut x_s = vec![0.5f64; m];
        let mut x_l = vec![1.0f64; m];
        let mut best = Assignment::from_voltages(&v);
        let mut best_cost = wf.violation_cost(&best);
        let sqrt_dt = DT.sqrt();
        let mut steps = 0u64;
        while steps < p.max_steps && best_cost > 0.0 {
            let mut dv = vec![0.0f64; n];
            for (mi, clause) in clauses.iter().enumerate() {
                let w = weights[mi];
                let c = definitional_drive(clause, &v, (x_s[mi], x_l[mi], w), &mut dv);
                let dx_s = BETA * x_s[mi] * (w * c - GAMMA * w);
                let dx_l = ALPHA * w * (c - DELTA);
                x_s[mi] = (x_s[mi] + DT * dx_s).clamp(EPSILON, 1.0 - EPSILON);
                x_l[mi] = (x_l[mi] + DT * dx_l).clamp(1.0, xl_max);
                if p.noise_sigma > 0.0 {
                    x_s[mi] = (x_s[mi] + p.noise_sigma * sqrt_dt * sample_normal(&mut rng))
                        .clamp(EPSILON, 1.0 - EPSILON);
                    x_l[mi] = (x_l[mi] + p.noise_sigma * sqrt_dt * sample_normal(&mut rng))
                        .clamp(1.0, xl_max);
                }
            }
            for (vi, d) in v.iter_mut().zip(&dv) {
                let mut next = *vi + DT * d;
                if p.noise_sigma > 0.0 {
                    next += p.noise_sigma * sqrt_dt * sample_normal(&mut rng);
                }
                *vi = next.clamp(-1.0, 1.0);
            }
            steps += 1;
            if steps % p.check_every == 0 {
                let a = Assignment::from_voltages(&v);
                let cost = wf.violation_cost(&a);
                if cost < best_cost {
                    best_cost = cost;
                    best = a;
                }
            }
        }
        if best_cost > 0.0 {
            let a = Assignment::from_voltages(&v);
            let cost = wf.violation_cost(&a);
            if cost < best_cost {
                best_cost = cost;
                best = a;
            }
        }
        MaxSatOutcome {
            best,
            best_cost,
            work: steps,
        }
    }

    #[test]
    fn trajectories_equal_the_definitional_loop() {
        let mut cases: Vec<WeightedFormula> = vec![
            conflicting_units(),
            WeightedFormula::uniform(planted_3sat(30, 4.2, 6).unwrap().formula),
        ];
        // QUBO-derived formulas: unit and two-literal clauses, mixed weights.
        for seed in [1u64, 2] {
            let mut rng = rng_from_seed(seed);
            let n = 12;
            let mut q = crate::qubo::Qubo::new(n).unwrap();
            for i in 0..n {
                q.add_linear(i, rng.gen_range(-1.0..1.0)).unwrap();
            }
            for _ in 0..n {
                let (i, j) = (rng.gen_range(0..n), rng.gen_range(0..n));
                if i != j {
                    q.add_quadratic(i, j, rng.gen_range(-1.0..1.0)).unwrap();
                }
            }
            cases.push(q.to_weighted_maxsat().unwrap().0);
        }
        let mut rng = rng_from_seed(3);
        let contradicting = contradicting(&mut rng);
        cases.push(contradicting.clone());
        // Weighted units the seeded start of case 5 (seed 45) satisfies: it
        // costs 0 at t = 0, so no step runs.
        let units = crate::dmm::tests::satisfied_at_start(20, 45);
        let weighted = units
            .clauses()
            .iter()
            .map(|clause| (clause.clone(), rng.gen_range(0.05..3.0)))
            .collect();
        cases.push(WeightedFormula::new(20, weighted).unwrap());
        let mut params = MaxSatDmmParams::default();
        params.dynamics.max_steps = 4_000;
        let mut runs: Vec<_> = cases.into_iter().map(|wf| (params, wf)).collect();
        // A budget that ends between checkpoints, and a noisy run.
        let mut ragged = params;
        ragged.dynamics.max_steps = 1_010;
        runs.push((ragged, contradicting.clone()));
        let mut noisy = params;
        noisy.dynamics.noise_sigma = 0.05;
        runs.push((noisy, contradicting));
        let mut outcomes = Vec::new();
        for (i, (params, wf)) in runs.iter().enumerate() {
            let seed = 40 + i as u64;
            let got = MaxSatDmm::new(*params).solve(wf, seed).unwrap();
            let expected = definitional_solve(&params.dynamics, wf, seed);
            assert_eq!(got, expected, "case {i}");
            assert_eq!(got.best_cost.to_bits(), expected.best_cost.to_bits());
            outcomes.push(got);
        }
        assert_eq!(outcomes[5].work, 0);
        assert_eq!(outcomes[6].work, 1_010);
        // The noise reaches the trajectory: the noisy run differs from the
        // same run without noise.
        let clean = MaxSatDmm::new(params).solve(&runs[7].1, 47).unwrap();
        assert_ne!(outcomes[7], clean);
    }

    /// [`MaxSatDmm::solve_lanes`] at `seeds`, each lane checked against
    /// [`MaxSatDmm::solve`] at its seed: `best`, `best_cost` to the bit and
    /// `work`.
    fn assert_lanes_are_lone_runs(
        params: MaxSatDmmParams,
        wf: &WeightedFormula,
        seeds: &[u64],
    ) -> Vec<MaxSatOutcome> {
        let solver = MaxSatDmm::new(params);
        let lanes = solver.solve_lanes(wf, seeds).unwrap();
        assert_eq!(lanes.len(), seeds.len());
        for (lane, (got, &seed)) in lanes.iter().zip(seeds).enumerate() {
            let want = solver.solve(wf, seed).unwrap();
            assert_eq!(got, &want, "{} lanes, lane {lane}", seeds.len());
            assert_eq!(got.best_cost.to_bits(), want.best_cost.to_bits());
        }
        lanes
    }

    #[test]
    fn every_lane_equals_its_lone_run() {
        // Restart counts below, at and past one chunk of 20 lanes.
        let counts = [1u64, 2, 3, 7, 20, 21];
        // Planted 3-SAT at unit weight and a budget between checkpoints:
        // lanes reach cost 0 at different checkpoints while the others run
        // on to the end.
        let planted = WeightedFormula::uniform(planted_3sat(50, 4.2, 8).unwrap().formula);
        let mut ragged = MaxSatDmmParams::default();
        ragged.dynamics.max_steps = 410;
        for count in counts {
            let seeds: Vec<u64> = (100..100 + count).collect();
            let lanes = assert_lanes_are_lone_runs(ragged, &planted, &seeds);
            if count == 21 {
                let mut stops: Vec<u64> = lanes
                    .iter()
                    .filter(|o| o.best_cost == 0.0)
                    .map(|o| o.work)
                    .collect();
                stops.sort_unstable();
                stops.dedup();
                assert!(stops.len() >= 3, "the case must tell: {stops:?}");
                assert!(lanes.iter().any(|o| o.best_cost > 0.0 && o.work == 410));
            }
        }
        // Mixed widths and weights under noise: each lane draws from its
        // own generator, in the order a lone run draws.
        let contradicting = contradicting(&mut rng_from_seed(3));
        let mut noisy = MaxSatDmmParams::default();
        noisy.dynamics.noise_sigma = 0.05;
        // A QUBO's formula under the served schedule.
        let mut rng = rng_from_seed(4);
        let mut q = crate::qubo::Qubo::new(24).unwrap();
        for i in 0..24 {
            q.add_linear(i, rng.gen_range(-1.0..1.0)).unwrap();
            q.add_quadratic(i, (i + 7) % 24, rng.gen_range(-1.0..1.0))
                .unwrap();
        }
        let qubo = q.to_weighted_maxsat().unwrap().0;
        for count in counts {
            let mut seeds = numerics::rng::SeedStream::new(count);
            let seeds: Vec<u64> = (0..count).map(|_| seeds.next_seed()).collect();
            let lanes = assert_lanes_are_lone_runs(noisy, &contradicting, &seeds);
            assert!(lanes.iter().all(|o| o.work == 250));
            assert_lanes_are_lone_runs(MaxSatDmmParams::default(), &qubo, &seeds);
        }
    }

    #[test]
    fn a_budget_between_checkpoints_judges_the_state_it_ends_in() {
        let wf = contradicting(&mut rng_from_seed(3));
        let run = |max_steps, check_every| {
            let mut params = MaxSatDmmParams::default();
            params.dynamics.max_steps = max_steps;
            params.dynamics.check_every = check_every;
            MaxSatDmm::new(params).solve(&wf, 0).unwrap()
        };
        // Checkpoints at 0 and 25, then the end state at 37.
        let ragged = run(37, 25);
        assert_eq!(ragged.work, 37);
        // The same trajectory judged at 0 and 25 only, and at 0 and 37 only.
        let (early, end) = (run(25, 25), run(37, 37));
        assert!(end.best_cost < early.best_cost, "the case must tell");
        assert_eq!(ragged.best, end.best);
        assert_eq!(ragged.best_cost.to_bits(), end.best_cost.to_bits());
    }

    #[test]
    fn violation_cost_weighted() {
        let wf = conflicting_units();
        let good = Assignment::from_bools(&[true, true]);
        assert_eq!(wf.violation_cost(&good), 1.0);
        let bad = Assignment::from_bools(&[false, false]);
        assert_eq!(wf.violation_cost(&bad), 6.0);
    }

    #[test]
    fn a_satisfied_formula_costs_positive_zero() {
        let wf = WeightedFormula::new(
            2,
            vec![
                (Clause::new(vec![Literal::positive(0)]).unwrap(), 4.0),
                (Clause::new(vec![Literal::negative(1)]).unwrap(), 2.0),
            ],
        )
        .unwrap();
        let cost = wf.violation_cost(&Assignment::from_bools(&[true, false]));
        assert_eq!(cost.to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn dmm_prefers_heavy_clauses() {
        let wf = conflicting_units();
        let out = MaxSatDmm::new(MaxSatDmmParams::default())
            .solve(&wf, 2)
            .unwrap();
        assert!(out.best.value(0));
        assert!(out.best.value(1));
        assert!((out.best_cost - 1.0).abs() < 1e-12);
    }

    #[test]
    fn satisfiable_instance_reaches_zero_cost() {
        let inst = planted_3sat(15, 3.5, 4).unwrap();
        let wf = WeightedFormula::uniform(inst.formula.clone());
        let out = MaxSatDmm::new(MaxSatDmmParams::default())
            .solve(&wf, 5)
            .unwrap();
        assert_eq!(out.best_cost, 0.0, "steps {}", out.work);
        assert!(inst.formula.is_satisfied(&out.best));
    }

    #[test]
    fn weights_must_be_positive() {
        assert!(WeightedFormula::new(
            1,
            vec![(Clause::new(vec![Literal::positive(0)]).unwrap(), 0.0)],
        )
        .is_err());
        assert!(WeightedFormula::new(
            1,
            vec![(Clause::new(vec![Literal::positive(0)]).unwrap(), f64::NAN)],
        )
        .is_err());
    }

    #[test]
    fn uniform_wrapper_unit_weights() {
        let inst = planted_3sat(10, 3.0, 1).unwrap();
        let wf = WeightedFormula::uniform(inst.formula.clone());
        assert!(wf.weights().iter().all(|&w| w == 1.0));
        assert_eq!(wf.weights().len(), inst.formula.len());
    }

    #[test]
    fn deterministic_per_seed() {
        let wf = conflicting_units();
        let solver = MaxSatDmm::new(MaxSatDmmParams::default());
        assert_eq!(solver.solve(&wf, 9).unwrap(), solver.solve(&wf, 9).unwrap());
    }
}

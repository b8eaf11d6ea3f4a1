//! The digital-memcomputing integrator and its SAT solver.
//!
//! One integrator runs every DMM in the crate: [`DmmSolver`] for SAT and
//! [`crate::maxsat::MaxSatDmm`] for weighted MaxSAT (and through it the
//! QUBO and RBM mode searches). It lays the formula's clauses out in one
//! packed table, runs the [`crate::solg`] clause step over it (SAT is that
//! step at weight 1; the definitional [`crate::solg::ClauseDynamics`] is
//! what the step is tested against), and integrates the coupled system
//! with clamped forward Euler (the integration scheme the DMM literature
//! itself uses — the dynamics are engineered to be robust to integration
//! error, which is the paper's noise-robustness point). Properties
//! delivered by the dynamics:
//!
//! * trajectories stay bounded (`v ∈ [−1,1]`, `x_s ∈ [ε, 1−ε]`,
//!   `x_l ∈ [1, x_l^max]` by projection — the point-dissipative property);
//! * when the formula is satisfiable, the only attractors are solutions
//!   (no periodic orbits or chaos coexist — checked empirically in
//!   [`crate::analysis`]);
//! * the voltage readout is *digital*: `v_i > 0 ↦ true`, so precision
//!   requirements do not grow with size (why DMMs scale, per the paper).
//!
//! Optional Gaussian noise on every state derivative reproduces the
//! robustness experiment of ref. \[59\].
//!
//! The two solvers differ only in what they do at a checkpoint: SAT
//! records the thresholded assignment and stops once it satisfies the
//! formula; MaxSAT keeps the cheapest assignment visited. The step loop
//! allocates nothing: SAT thresholds into one reused [`Assignment`] and
//! clones it only into [`DmmOutcome::checkpoints`].
//!
//! # Example
//!
//! ```
//! use mem::generators::planted_3sat;
//! use mem::dmm::{DmmParams, DmmSolver};
//!
//! let inst = planted_3sat(20, 4.0, 1)?;
//! let outcome = DmmSolver::new(DmmParams::default()).solve(&inst.formula, 3)?;
//! assert!(outcome.solution.is_some());
//! # Ok::<(), mem::MemError>(())
//! ```

use crate::assignment::Assignment;
use crate::cnf::Formula;
use crate::solg::ClauseTable;
use crate::MemError;
use numerics::rng::Rng;
use numerics::rng::{rng_from_seed, sample_normal};

/// DMM dynamical parameters (the standard values from the SAT-DMM
/// literature).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DmmParams {
    /// Long-memory growth rate α.
    pub alpha: f64,
    /// Short-memory rate β.
    pub beta: f64,
    /// Short-memory threshold γ.
    pub gamma: f64,
    /// Long-memory threshold δ.
    pub delta: f64,
    /// Long-memory mixing ζ in the rigidity term.
    pub zeta: f64,
    /// Short-memory clamping margin ε.
    pub epsilon: f64,
    /// Integration step.
    pub dt: f64,
    /// Maximum integration steps before giving up.
    pub max_steps: u64,
    /// Solution check cadence (steps).
    pub check_every: u64,
    /// Gaussian noise amplitude added to every derivative (`0` = clean).
    pub noise_sigma: f64,
}

impl Default for DmmParams {
    fn default() -> Self {
        DmmParams {
            alpha: 5.0,
            beta: 20.0,
            gamma: 0.25,
            delta: 0.05,
            zeta: 0.1,
            epsilon: 1e-3,
            dt: 0.08,
            max_steps: 200_000,
            check_every: 25,
            noise_sigma: 0.0,
        }
    }
}

impl DmmParams {
    /// Validates the parameter set.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::Parameter`] for a rate or step that is not
    /// positive and finite, a threshold or mixing that is not finite, an
    /// `epsilon` outside `(0, 0.5)`, zero step counts, or a `noise_sigma`
    /// that is negative, infinite or NaN.
    pub(crate) fn validate(&self) -> Result<(), MemError> {
        for (name, rate) in [("alpha", self.alpha), ("beta", self.beta), ("dt", self.dt)] {
            if !(rate > 0.0 && rate.is_finite()) {
                return Err(MemError::Parameter {
                    name,
                    reason: "memory rates and the integration step must be positive and finite",
                });
            }
        }
        for (name, value) in [
            ("gamma", self.gamma),
            ("delta", self.delta),
            ("zeta", self.zeta),
        ] {
            if !value.is_finite() {
                return Err(MemError::Parameter {
                    name,
                    reason: "memory thresholds and the rigidity mixing must be finite",
                });
            }
        }
        if !(self.epsilon > 0.0 && self.epsilon < 0.5) {
            return Err(MemError::Parameter {
                name: "epsilon",
                reason: "clamping margin must be in (0, 0.5)",
            });
        }
        if self.max_steps == 0 || self.check_every == 0 {
            return Err(MemError::Parameter {
                name: "max_steps/check_every",
                reason: "step counts must be positive",
            });
        }
        if !(self.noise_sigma >= 0.0) || !self.noise_sigma.is_finite() {
            return Err(MemError::Parameter {
                name: "noise_sigma",
                reason: "noise amplitude must be finite and non-negative",
            });
        }
        Ok(())
    }
}

/// Outcome of a DMM run.
#[derive(Debug, Clone, PartialEq)]
pub struct DmmOutcome {
    /// The satisfying assignment, when the dynamics reached one.
    pub solution: Option<Assignment>,
    /// Integration steps taken.
    pub steps: u64,
    /// Simulated physical time `steps · dt`.
    pub time: f64,
    /// Fewest violated clauses observed at any checkpoint.
    pub best_unsat: usize,
    /// Snapshots of the thresholded assignment at every checkpoint
    /// (including the final one); used for cluster-flip / DLRO analysis.
    pub checkpoints: Vec<Assignment>,
    /// Extreme |v| observed (boundedness diagnostic; must stay ≤ 1).
    pub max_abs_v: f64,
}

/// The DMM SAT solver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DmmSolver {
    params: DmmParams,
}

impl DmmSolver {
    /// Creates a solver.
    #[must_use]
    pub fn new(params: DmmParams) -> Self {
        DmmSolver { params }
    }

    /// The parameters.
    #[must_use]
    pub fn params(&self) -> &DmmParams {
        &self.params
    }

    /// Integrates the SOLG dynamics until a satisfying assignment appears
    /// at a checkpoint or the step budget is exhausted.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::Parameter`] for invalid parameters.
    pub fn solve(&self, formula: &Formula, seed: u64) -> Result<DmmOutcome, MemError> {
        self.params.validate()?;
        let mut assignment = Assignment::new_false(formula.n_vars());
        let mut checkpoints = Vec::new();
        let mut best_unsat = formula.len();
        // The seeded start is recorded but not judged, except that an
        // empty formula is solved there.
        let mut visit = |steps: u64, v: &[f64]| {
            assignment.set_from_voltages(v);
            checkpoints.push(assignment.clone());
            if steps == 0 {
                return formula.is_empty();
            }
            let unsat = formula.count_unsatisfied(&assignment);
            best_unsat = best_unsat.min(unsat);
            unsat == 0
        };
        // SAT is the weighted step at weight 1.0.
        let run = integrate(
            &self.params,
            formula,
            std::iter::repeat(1.0),
            seed,
            &mut visit,
        );
        // A run that spent its budget is judged once more, where it ended.
        let solved = run.stopped || visit(run.steps, &run.v);
        Ok(DmmOutcome {
            solution: solved.then_some(assignment),
            steps: run.steps,
            time: run.steps as f64 * self.params.dt,
            best_unsat,
            checkpoints,
            max_abs_v: run.max_abs_v,
        })
    }
}

/// Where an [`integrate`] run ended.
pub(crate) struct Run {
    /// The voltages after the last step.
    pub(crate) v: Vec<f64>,
    /// Integration steps taken.
    pub(crate) steps: u64,
    /// Extreme |v| over the steps taken (`0` before the first).
    pub(crate) max_abs_v: f64,
    /// Whether a visit stopped the run (else the step budget ran out).
    pub(crate) stopped: bool,
}

/// The one DMM integrator. Clause `m` of `formula` is weighted by the
/// `m`-th item of `weights`; the voltages start uniform in `[−1, 1)` from
/// `seed`, the memories at `x_s = ½`, `x_l = 1`. Each clamped-Euler step
/// runs the clause step, then, for `noise_sigma > 0`, draws the memory
/// noise in clause order and the voltage noise in variable order.
///
/// `visit(steps, v)` sees the seeded start (`steps == 0`) and the state
/// after every `check_every`-th step; returning `true` stops the run.
pub(crate) fn integrate(
    p: &DmmParams,
    formula: &Formula,
    weights: impl IntoIterator<Item = f64>,
    seed: u64,
    mut visit: impl FnMut(u64, &[f64]) -> bool,
) -> Run {
    let clauses = ClauseTable::new(formula, weights, p);
    let xl_max = clauses.x_l_max();
    let mut rng = rng_from_seed(seed);
    let mut v: Vec<f64> = (0..formula.n_vars())
        .map(|_| rng.gen_range(-1.0..1.0))
        .collect();
    let mut x_s = vec![0.5f64; formula.len()];
    let mut x_l = vec![1.0f64; formula.len()];
    let mut dv = vec![0.0f64; v.len()];
    let mut max_abs_v: f64 = 0.0;
    let sqrt_dt = p.dt.sqrt();
    let mut steps = 0u64;
    let mut stopped = visit(0, &v);
    while !stopped && steps < p.max_steps {
        clauses.step(&v, &mut x_s, &mut x_l, &mut dv);
        if p.noise_sigma > 0.0 {
            // Memory noise, a second pass in clause order: no clause's
            // drive reads another clause's memory, so the draws and the
            // values are those of a per-clause update. Voltage noise
            // follows, in variable order.
            let kick = p.noise_sigma * sqrt_dt;
            for (x_s, x_l) in x_s.iter_mut().zip(&mut x_l) {
                *x_s = (*x_s + kick * sample_normal(&mut rng)).clamp(p.epsilon, 1.0 - p.epsilon);
                *x_l = (*x_l + kick * sample_normal(&mut rng)).clamp(1.0, xl_max);
            }
            for (vi, d) in v.iter_mut().zip(&dv) {
                *vi = (*vi + p.dt * d + kick * sample_normal(&mut rng)).clamp(-1.0, 1.0);
            }
        } else {
            for (vi, d) in v.iter_mut().zip(&dv) {
                *vi = (*vi + p.dt * d).clamp(-1.0, 1.0);
            }
        }
        // The clamp bounds |v| by 1, so a maximum of 1 is final.
        if max_abs_v < 1.0 {
            max_abs_v = v.iter().fold(max_abs_v, |m, vi| m.max(vi.abs()));
        }
        steps += 1;
        if steps % p.check_every == 0 {
            stopped = visit(steps, &v);
        }
    }
    Run {
        v,
        steps,
        max_abs_v,
        stopped,
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::cnf::{Clause, Literal};
    use crate::dimacs;
    use crate::generators::{planted_3sat, random_ksat};
    use numerics::rng::shuffle;

    /// `m` clauses of widths 1 to 5 over `n` variables, all satisfied by
    /// one hidden assignment: every arm of the clause step in one formula.
    pub(crate) fn mixed_widths(n: usize, m: usize, seed: u64) -> Formula {
        let mut rng = rng_from_seed(seed);
        let hidden: Vec<bool> = (0..n).map(|_| rng.gen::<bool>()).collect();
        let mut vars: Vec<usize> = (0..n).collect();
        let clauses = (0..m)
            .map(|_| {
                shuffle(&mut rng, &mut vars);
                let width = rng.gen_range(1..=5usize);
                let mut literals: Vec<Literal> = vars[..width]
                    .iter()
                    .map(|&var| {
                        if rng.gen::<bool>() {
                            Literal::positive(var)
                        } else {
                            Literal::negative(var)
                        }
                    })
                    .collect();
                if !literals.iter().any(|l| l.eval(hidden[l.var()])) {
                    literals[0] = Literal::from_dimacs(-literals[0].to_dimacs()).unwrap();
                }
                Clause::new(literals).unwrap()
            })
            .collect();
        Formula::new(n, clauses).unwrap()
    }

    /// One unit clause per variable, each satisfied where a run from
    /// `seed` starts: `v_i > 0` for the `i`-th seeded voltage.
    pub(crate) fn satisfied_at_start(n: usize, seed: u64) -> Formula {
        let mut rng = rng_from_seed(seed);
        let clauses = (0..n)
            .map(|var| {
                let literal = if rng.gen_range(-1.0..1.0f64) > 0.0 {
                    Literal::positive(var)
                } else {
                    Literal::negative(var)
                };
                Clause::new(vec![literal]).unwrap()
            })
            .collect();
        Formula::new(n, clauses).unwrap()
    }

    /// [`DmmSolver::solve`] as it ran on one `ClauseDynamics` per clause:
    /// every quantity recomputed from the definition, a fresh assignment
    /// at every checkpoint.
    fn definitional_solve(p: &DmmParams, formula: &Formula, seed: u64) -> DmmOutcome {
        use crate::solg::{tests::definitional_drive, ClauseDynamics};
        let (n, m) = (formula.n_vars(), formula.len());
        let clauses: Vec<ClauseDynamics> =
            formula.clauses().iter().map(ClauseDynamics::new).collect();
        let xl_max = 1e4 * (m.max(1) as f64);
        let mut rng = rng_from_seed(seed);
        let mut v: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let mut x_s = vec![0.5f64; m];
        let mut x_l = vec![1.0f64; m];
        let mut checkpoints = vec![Assignment::from_voltages(&v)];
        let mut best_unsat = m;
        let mut max_abs_v: f64 = 0.0;
        let sqrt_dt = p.dt.sqrt();
        let mut steps = 0u64;
        while steps < p.max_steps {
            let mut dv = vec![0.0f64; n];
            for (mi, clause) in clauses.iter().enumerate() {
                let c = definitional_drive(clause, &v, (x_s[mi], x_l[mi], p.zeta, 1.0), &mut dv);
                let dx_s = p.beta * x_s[mi] * (c - p.gamma);
                let dx_l = p.alpha * (c - p.delta);
                x_s[mi] = (x_s[mi] + p.dt * dx_s).clamp(p.epsilon, 1.0 - p.epsilon);
                x_l[mi] = (x_l[mi] + p.dt * dx_l).clamp(1.0, xl_max);
                if p.noise_sigma > 0.0 {
                    x_s[mi] = (x_s[mi] + p.noise_sigma * sqrt_dt * sample_normal(&mut rng))
                        .clamp(p.epsilon, 1.0 - p.epsilon);
                    x_l[mi] = (x_l[mi] + p.noise_sigma * sqrt_dt * sample_normal(&mut rng))
                        .clamp(1.0, xl_max);
                }
            }
            for (vi, d) in v.iter_mut().zip(&dv) {
                let mut next = *vi + p.dt * d;
                if p.noise_sigma > 0.0 {
                    next += p.noise_sigma * sqrt_dt * sample_normal(&mut rng);
                }
                *vi = next.clamp(-1.0, 1.0);
                max_abs_v = max_abs_v.max(vi.abs());
            }
            steps += 1;
            if steps % p.check_every == 0 {
                let assignment = Assignment::from_voltages(&v);
                let unsat = formula.count_unsatisfied(&assignment);
                best_unsat = best_unsat.min(unsat);
                checkpoints.push(assignment.clone());
                if unsat == 0 {
                    return DmmOutcome {
                        solution: Some(assignment),
                        steps,
                        time: steps as f64 * p.dt,
                        best_unsat: 0,
                        checkpoints,
                        max_abs_v,
                    };
                }
            }
        }
        let last = Assignment::from_voltages(&v);
        let unsat = formula.count_unsatisfied(&last);
        checkpoints.push(last.clone());
        DmmOutcome {
            solution: (unsat == 0).then_some(last),
            steps,
            time: steps as f64 * p.dt,
            best_unsat: best_unsat.min(unsat),
            checkpoints,
            max_abs_v,
        }
    }

    #[test]
    fn trajectories_equal_the_definitional_loop() {
        // Solved runs, a timed-out one, a noisy one: every field of the
        // outcome, `max_abs_v` to the bit.
        let mut cases = Vec::new();
        for (n_vars, seed) in [(20usize, 1u64), (35, 2), (50, 3), (60, 4)] {
            let formula = planted_3sat(n_vars, 4.2, seed).unwrap().formula;
            cases.push((DmmParams::default(), formula, seed + 10));
        }
        let mut short = DmmParams::default();
        short.max_steps = 60;
        cases.push((short, planted_3sat(60, 4.2, 9).unwrap().formula, 5));
        let mut noisy = DmmParams::default();
        noisy.noise_sigma = 0.05;
        cases.push((noisy, planted_3sat(25, 4.0, 11).unwrap().formula, 4));
        // Every width from 1 to 5, noise on: the unrolled arms, the loop
        // arm and the noise pass together. The second formula gains two
        // contradicting unit clauses, so it runs its whole budget and a
        // noise draw given to the wrong clause shows in a checkpoint.
        cases.push((noisy, mixed_widths(30, 100, 21), 21));
        let mut clauses = mixed_widths(30, 100, 22).clauses().to_vec();
        for literal in [Literal::positive(0), Literal::negative(0)] {
            clauses.push(Clause::new(vec![literal]).unwrap());
        }
        let mut noisy_short = noisy;
        noisy_short.max_steps = 1_500;
        cases.push((noisy_short, Formula::new(30, clauses).unwrap(), 22));
        // A formula the seeded start satisfies: the start is recorded but
        // not judged, so the run stops at the first checkpoint.
        cases.push((DmmParams::default(), satisfied_at_start(40, 7), 7));
        for (params, formula, seed) in &cases {
            let got = DmmSolver::new(*params).solve(formula, *seed).unwrap();
            let expected = definitional_solve(params, formula, *seed);
            assert_eq!(got, expected, "{} vars, seed {seed}", formula.n_vars());
            assert_eq!(got.max_abs_v.to_bits(), expected.max_abs_v.to_bits());
        }
        let (params, formula, seed) = cases.last().unwrap();
        let got = DmmSolver::new(*params).solve(formula, *seed).unwrap();
        assert_eq!(got.steps, params.check_every);
        assert!(formula.is_satisfied(&got.checkpoints[0]));
    }

    #[test]
    fn solves_tiny_formula() {
        let f = dimacs::parse("p cnf 3 3\n1 2 0\n-1 3 0\n-2 -3 0\n").unwrap();
        let outcome = DmmSolver::new(DmmParams::default()).solve(&f, 1).unwrap();
        let sol = outcome.solution.expect("satisfiable");
        assert!(f.is_satisfied(&sol));
        assert_eq!(outcome.best_unsat, 0);
    }

    #[test]
    fn solves_planted_instances_at_hard_ratio() {
        for seed in 0..3 {
            let inst = planted_3sat(30, 4.2, seed).unwrap();
            let outcome = DmmSolver::new(DmmParams::default())
                .solve(&inst.formula, seed + 10)
                .unwrap();
            let sol = outcome
                .solution
                .unwrap_or_else(|| panic!("seed {seed}: unsolved in {} steps", outcome.steps));
            assert!(inst.formula.is_satisfied(&sol));
        }
    }

    #[test]
    fn trajectories_stay_bounded() {
        let inst = planted_3sat(25, 4.0, 5).unwrap();
        let outcome = DmmSolver::new(DmmParams::default())
            .solve(&inst.formula, 2)
            .unwrap();
        assert!(outcome.max_abs_v <= 1.0 + 1e-12);
    }

    #[test]
    fn deterministic_per_seed() {
        let inst = planted_3sat(20, 4.0, 7).unwrap();
        let solver = DmmSolver::new(DmmParams::default());
        let a = solver.solve(&inst.formula, 3).unwrap();
        let b = solver.solve(&inst.formula, 3).unwrap();
        assert_eq!(a.steps, b.steps);
        assert_eq!(a.solution, b.solution);
    }

    #[test]
    fn noise_does_not_break_solving() {
        // The ref.-[59] robustness property: moderate noise leaves the
        // solution search intact.
        let inst = planted_3sat(20, 4.0, 11).unwrap();
        let mut params = DmmParams::default();
        params.noise_sigma = 0.05;
        let outcome = DmmSolver::new(params).solve(&inst.formula, 4).unwrap();
        let sol = outcome.solution.expect("noisy run should still solve");
        assert!(inst.formula.is_satisfied(&sol));
    }

    #[test]
    fn unsat_instance_times_out_without_false_positive() {
        let f = dimacs::parse("p cnf 1 2\n1 0\n-1 0\n").unwrap();
        let mut params = DmmParams::default();
        params.max_steps = 2_000;
        let outcome = DmmSolver::new(params).solve(&f, 1).unwrap();
        assert!(outcome.solution.is_none());
        assert!(outcome.best_unsat >= 1);
        assert_eq!(outcome.steps, 2_000);
    }

    #[test]
    fn checkpoints_recorded() {
        let inst = planted_3sat(15, 3.5, 2).unwrap();
        let outcome = DmmSolver::new(DmmParams::default())
            .solve(&inst.formula, 6)
            .unwrap();
        assert!(!outcome.checkpoints.is_empty());
        // The last checkpoint is the returned solution when solved.
        if let Some(sol) = &outcome.solution {
            assert_eq!(outcome.checkpoints.last().unwrap(), sol);
        }
    }

    #[test]
    fn empty_formula_trivial() {
        let f = Formula::new(3, vec![]).unwrap();
        let outcome = DmmSolver::new(DmmParams::default()).solve(&f, 1).unwrap();
        assert!(outcome.solution.is_some());
        assert_eq!(outcome.steps, 0);
    }

    #[test]
    fn parameter_validation() {
        let mut p = DmmParams::default();
        p.dt = 0.0;
        assert!(DmmSolver::new(p)
            .solve(&random_ksat(5, 3, 2.0, 1).unwrap(), 1)
            .is_err());
        let mut p = DmmParams::default();
        p.epsilon = 0.7;
        assert!(p.validate().is_err());
        let mut p = DmmParams::default();
        p.noise_sigma = -1.0;
        assert!(p.validate().is_err());
    }

    #[test]
    fn a_nan_or_infinite_parameter_is_refused() {
        let with = |set: fn(&mut DmmParams)| {
            let mut p = DmmParams::default();
            set(&mut p);
            p
        };
        for (field, p) in [
            ("noise_sigma", with(|p| p.noise_sigma = f64::NAN)),
            ("noise_sigma", with(|p| p.noise_sigma = f64::INFINITY)),
            ("gamma", with(|p| p.gamma = f64::NAN)),
            ("delta", with(|p| p.delta = f64::NAN)),
            ("zeta", with(|p| p.zeta = f64::NAN)),
            ("alpha", with(|p| p.alpha = f64::INFINITY)),
            ("beta", with(|p| p.beta = f64::INFINITY)),
            ("dt", with(|p| p.dt = f64::INFINITY)),
        ] {
            assert!(
                matches!(p.validate(), Err(MemError::Parameter { name, .. }) if name == field),
                "{field}: {p:?}"
            );
        }
    }
}

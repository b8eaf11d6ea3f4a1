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
//! formula; MaxSAT keeps the cheapest assignment visited.
//!
//! The integrator runs one trajectory per seed, up to 20 of them in
//! lockstep over one lane-major state: the served QUBO's restarts are the
//! lanes of one call, each judged and stopped on its own, and a lone SAT
//! or MaxSAT run is the one-lane instance. Each lane's trajectory is the
//! one its seed runs alone, bit for bit. The state is allocated once per
//! call, and the step loop allocates nothing: a visit reads one lane's
//! voltages gathered into one reused buffer, and SAT thresholds them into
//! one reused [`Assignment`] and clones it only into
//! [`DmmOutcome::checkpoints`].
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

/// Long-memory growth rate α (the standard SAT-DMM values, here and
/// below).
pub(crate) const ALPHA: f64 = 5.0;
/// Short-memory rate β.
pub(crate) const BETA: f64 = 20.0;
/// Short-memory threshold γ.
pub(crate) const GAMMA: f64 = 0.25;
/// Long-memory threshold δ.
pub(crate) const DELTA: f64 = 0.05;
/// Long-memory mixing ζ in the rigidity term.
pub(crate) const ZETA: f64 = 0.1;
/// Short-memory clamping margin ε: `x_s ∈ [ε, 1 − ε]`.
pub(crate) const EPSILON: f64 = 1e-3;
/// Integration step, in the 1 ns RC time unit the serving cost model
/// prices trajectories at.
pub const DT: f64 = 0.08;

/// A DMM run's budget, checkpoint cadence and noise; the dynamics'
/// rates and step are the constants above.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DmmParams {
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
    /// Returns [`MemError::Parameter`] for zero step counts, or a
    /// `noise_sigma` that is negative, infinite or NaN.
    pub(crate) fn validate(&self) -> Result<(), MemError> {
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
        // SAT is the weighted step at weight 1.0. The seeded start is
        // recorded but not judged, except that an empty formula is solved
        // there.
        let visit = |_, steps, v: &[f64]| {
            assignment.set_from_voltages(v);
            checkpoints.push(assignment.clone());
            if steps == 0 {
                return formula.is_empty();
            }
            let unsat = formula.count_unsatisfied(&assignment);
            best_unsat = best_unsat.min(unsat);
            unsat == 0
        };
        let run = integrate(
            &self.params,
            formula,
            std::iter::repeat(1.0),
            &[seed],
            visit,
        )[0];
        Ok(DmmOutcome {
            solution: run.done.then_some(assignment),
            steps: run.steps,
            time: run.steps as f64 * DT,
            best_unsat,
            checkpoints,
            max_abs_v: run.max_abs_v,
        })
    }
}

/// Where one lane of an [`integrate`] run ended.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Run {
    /// Integration steps the lane took.
    pub(crate) steps: u64,
    /// Extreme |v| over those steps (`0` before the first).
    pub(crate) max_abs_v: f64,
    /// What the lane's last visit returned: `true` when a visit stopped
    /// it, else the verdict on the state its budget ended in.
    pub(crate) done: bool,
}

/// The widest chunk of trajectories [`integrate`] runs in lockstep: the
/// 20 restarts of the served QUBO schedule
/// ([`crate::maxsat::MaxSatDmmParams`]'s default), so that a served call
/// is one chunk. Seeds left over run one at a time: no other caller
/// runs more than one.
const LANES: usize = 20;

/// The one DMM integrator: one trajectory per seed, in chunks of up to
/// [`LANES`] run in lockstep over a lane-major state. Clause `m` of
/// `formula` is weighted by the `m`-th item of `weights`; each lane's
/// voltages start uniform in `[−1, 1)` from its seed, the memories at
/// `x_s = ½`, `x_l = 1`. Each clamped-Euler step runs the clause step,
/// then, for `noise_sigma > 0`, draws each lane's memory noise in clause
/// order and its voltage noise in variable order from the lane's own
/// generator. A lane's trajectory is the one a run of its seed alone
/// takes, bit for bit.
///
/// `visit(lane, steps, v)` sees lane `lane`'s voltages at the seeded start
/// (`steps == 0`), after every `check_every`-th step and, unless a visit
/// returned `true` (which stops that lane), where its budget ended. Lane
/// `k` is `seeds[k]`, and so is the `k`-th [`Run`]. The state is allocated
/// once per call, for every chunk.
pub(crate) fn integrate(
    p: &DmmParams,
    formula: &Formula,
    weights: impl IntoIterator<Item = f64>,
    seeds: &[u64],
    mut visit: impl FnMut(usize, u64, &[f64]) -> bool,
) -> Vec<Run> {
    let table = ClauseTable::new(formula, weights);
    let width = if seeds.len() < LANES { 1 } else { LANES };
    let (n, m) = (formula.n_vars(), formula.len());
    let mut state = State {
        n,
        m,
        v: vec![0.0; n * width],
        x_s: vec![0.0; m * width],
        x_l: vec![0.0; m * width],
        dv: vec![0.0; n * width],
        lane: Vec::with_capacity(n),
    };
    let mut runs = Vec::with_capacity(seeds.len());
    while runs.len() < seeds.len() {
        let first = runs.len();
        let chunk = &seeds[first..];
        let mut visit = |lane, steps, v: &[f64]| visit(first + lane, steps, v);
        match chunk.len() {
            LANES.. => runs.extend(lockstep::<LANES>(p, &table, chunk, &mut state, &mut visit)),
            _ => runs.extend(lockstep::<1>(p, &table, chunk, &mut state, &mut visit)),
        }
    }
    runs
}

/// The lane-major buffers of an [`integrate`] call over `n` variables and
/// `m` clauses, sized for its widest chunk, and one lane's voltages
/// gathered for a visit.
struct State {
    n: usize,
    m: usize,
    v: Vec<f64>,
    x_s: Vec<f64>,
    x_l: Vec<f64>,
    dv: Vec<f64>,
    lane: Vec<f64>,
}

/// [`integrate`] for the first `L` seeds of `seeds`.
fn lockstep<const L: usize>(
    p: &DmmParams,
    table: &ClauseTable,
    seeds: &[u64],
    state: &mut State,
    visit: &mut impl FnMut(usize, u64, &[f64]) -> bool,
) -> [Run; L] {
    let (n, m) = (state.n, state.m);
    let (v, dv) = (&mut state.v[..n * L], &mut state.dv[..n * L]);
    let (x_s, x_l) = (&mut state.x_s[..m * L], &mut state.x_l[..m * L]);
    let lane_v = &mut state.lane;
    let mut rngs: [_; L] = std::array::from_fn(|lane| rng_from_seed(seeds[lane]));
    for (lane, rng) in rngs.iter_mut().enumerate() {
        for vi in v.iter_mut().skip(lane).step_by(L) {
            *vi = rng.gen_range(-1.0..1.0);
        }
    }
    x_s.fill(0.5);
    x_l.fill(1.0);
    // One lane's voltages as a slice: the state itself when it is the
    // only lane.
    let mut visit = |lane: usize, steps: u64, v: &[f64]| {
        if L == 1 {
            return visit(lane, steps, v);
        }
        lane_v.clear();
        lane_v.extend(v.iter().skip(lane).step_by(L));
        visit(lane, steps, lane_v.as_slice())
    };
    let mut runs = [Run {
        steps: 0,
        max_abs_v: 0.0,
        done: false,
    }; L];
    for (lane, run) in runs.iter_mut().enumerate() {
        run.done = visit(lane, 0, v);
    }
    let xl_max = table.x_l_max();
    let sqrt_dt = DT.sqrt();
    let mut steps = 0u64;
    while runs.iter().any(|run| !run.done) && steps < p.max_steps {
        table.step::<L>(v, x_s, x_l, dv);
        if p.noise_sigma > 0.0 {
            // Memory noise, a second pass in clause order: no clause's
            // drive reads another clause's memory, so the draws and the
            // values are those of a per-clause update. Voltage noise
            // follows, in variable order. Each lane draws from its own
            // generator in that order.
            let kick = p.noise_sigma * sqrt_dt;
            for (lane, rng) in rngs.iter_mut().enumerate() {
                let memories = x_s.iter_mut().zip(x_l.iter_mut()).skip(lane);
                for (x_s, x_l) in memories.step_by(L) {
                    *x_s = (*x_s + kick * sample_normal(rng)).clamp(EPSILON, 1.0 - EPSILON);
                    *x_l = (*x_l + kick * sample_normal(rng)).clamp(1.0, xl_max);
                }
                for (vi, d) in v.iter_mut().zip(dv.iter()).skip(lane).step_by(L) {
                    *vi = (*vi + DT * d + kick * sample_normal(rng)).clamp(-1.0, 1.0);
                }
            }
        } else {
            for (vi, d) in v.iter_mut().zip(dv.iter()) {
                *vi = (*vi + DT * d).clamp(-1.0, 1.0);
            }
        }
        steps += 1;
        let checkpoint = steps % p.check_every == 0;
        for (lane, run) in runs.iter_mut().enumerate() {
            if run.done {
                continue;
            }
            run.steps = steps;
            // The clamp bounds |v| by 1, so a maximum of 1 is final.
            if run.max_abs_v < 1.0 {
                let lane_v = v.iter().skip(lane).step_by(L);
                run.max_abs_v = lane_v.fold(run.max_abs_v, |m, vi| m.max(vi.abs()));
            }
            if checkpoint {
                run.done = visit(lane, steps, v);
            }
        }
    }
    // A lane that spent its budget is judged once more, where it ended.
    for (lane, run) in runs.iter_mut().enumerate() {
        if !run.done {
            run.done = visit(lane, run.steps, v);
        }
    }
    runs
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
        let sqrt_dt = DT.sqrt();
        let mut steps = 0u64;
        while steps < p.max_steps {
            let mut dv = vec![0.0f64; n];
            for (mi, clause) in clauses.iter().enumerate() {
                let c = definitional_drive(clause, &v, (x_s[mi], x_l[mi], 1.0), &mut dv);
                let dx_s = BETA * x_s[mi] * (c - GAMMA);
                let dx_l = ALPHA * (c - DELTA);
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
                        time: steps as f64 * DT,
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
            time: steps as f64 * DT,
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

    /// [`DmmSolver::solve`]'s outcome at every seed, from one lockstep
    /// [`integrate`] call whose lanes are visited as `solve` visits its one.
    fn solve_in_lockstep(p: &DmmParams, formula: &Formula, seeds: &[u64]) -> Vec<DmmOutcome> {
        let mut lanes: Vec<(Vec<Assignment>, usize)> =
            seeds.iter().map(|_| (Vec::new(), formula.len())).collect();
        let runs = integrate(
            p,
            formula,
            std::iter::repeat(1.0),
            seeds,
            |lane, steps, v| {
                let (checkpoints, best_unsat) = &mut lanes[lane];
                let assignment = Assignment::from_voltages(v);
                checkpoints.push(assignment.clone());
                if steps == 0 {
                    return formula.is_empty();
                }
                let unsat = formula.count_unsatisfied(&assignment);
                *best_unsat = (*best_unsat).min(unsat);
                unsat == 0
            },
        );
        lanes
            .into_iter()
            .zip(runs)
            .map(|((checkpoints, best_unsat), run)| DmmOutcome {
                solution: run.done.then(|| checkpoints[checkpoints.len() - 1].clone()),
                steps: run.steps,
                time: run.steps as f64 * DT,
                best_unsat,
                checkpoints,
                max_abs_v: run.max_abs_v,
            })
            .collect()
    }

    #[test]
    fn every_lane_equals_its_lone_run() {
        // Lanes that solve at different checkpoints while others run on to
        // a budget between checkpoints, clean and noisy, at seed counts
        // below, at and past one chunk of 20 lanes: every field,
        // `max_abs_v` to the bit.
        let formula = planted_3sat(50, 4.2, 8).unwrap().formula;
        let mut clean = DmmParams::default();
        clean.max_steps = 410;
        let mut noisy = clean;
        noisy.noise_sigma = 0.05;
        for params in [clean, noisy] {
            for count in [1u64, 2, 3, 7, 20, 21] {
                let seeds: Vec<u64> = (100..100 + count).collect();
                let lanes = solve_in_lockstep(&params, &formula, &seeds);
                for (lane, (got, &seed)) in lanes.iter().zip(&seeds).enumerate() {
                    let want = DmmSolver::new(params).solve(&formula, seed).unwrap();
                    assert_eq!(got, &want, "{count} lanes, lane {lane}");
                    assert_eq!(got.max_abs_v.to_bits(), want.max_abs_v.to_bits());
                }
                if count == 21 {
                    // The case must tell: lanes stop at different
                    // checkpoints, and some spend the whole budget.
                    let mut stops: Vec<u64> = lanes
                        .iter()
                        .filter(|o| o.solution.is_some())
                        .map(|o| o.steps)
                        .collect();
                    stops.sort_unstable();
                    stops.dedup();
                    assert!(stops.len() >= 3, "{stops:?}");
                    assert!(lanes.iter().any(|o| o.solution.is_none() && o.steps == 410));
                }
            }
        }
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
        let with = |set: fn(&mut DmmParams)| {
            let mut p = DmmParams::default();
            set(&mut p);
            p
        };
        let formula = random_ksat(5, 3, 2.0, 1).unwrap();
        for (field, p) in [
            ("max_steps/check_every", with(|p| p.max_steps = 0)),
            ("max_steps/check_every", with(|p| p.check_every = 0)),
            ("noise_sigma", with(|p| p.noise_sigma = -1.0)),
            ("noise_sigma", with(|p| p.noise_sigma = f64::NAN)),
            ("noise_sigma", with(|p| p.noise_sigma = f64::INFINITY)),
        ] {
            assert!(
                matches!(p.validate(), Err(MemError::Parameter { name, .. }) if name == field),
                "{field}: {p:?}"
            );
            assert!(DmmSolver::new(p).solve(&formula, 1).is_err(), "{p:?}");
        }
    }
}

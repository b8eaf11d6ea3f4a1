//! Self-organizing logic gate (SOLG) dynamics.
//!
//! The paper's Eqs. 1–2 describe DMM circuits abstractly: voltage variables
//! driven by memristive (`Δg_M·x·ΔV_M`) and resistive (`g_R·ΔV_R`) terms,
//! plus bounded memory variables `x ∈ [0, 1]` evolving as `ẋ = h(ΔV_M, x)`.
//! For SAT, the concrete realization used throughout the memcomputing
//! literature (Traversa & Di Ventra 2017; Bearden, Pei & Di Ventra 2020)
//! assigns each variable a continuous voltage `v ∈ [−1, 1]` and each clause
//! `m` (an OR-SOLG) two memory variables — a fast one `x_s ∈ [0, 1]` and a
//! slow one `x_l ≥ 1` — with per-clause terms:
//!
//! ```text
//! C_m(v)   = ½ · min_i (1 − q_{m,i} v_i)          clause "unsatisfaction"
//! G_{m,i}  = ½ · q_{m,i} · min_{j≠i} (1 − q_{m,j} v_j)   gradient-like drive
//! R_{m,i}  = ½ · (q_{m,i} − v_i)  if i = argmin, else 0  rigidity drive
//!
//! v̇_i  = Σ_m  x_l,m · x_s,m · G_{m,i} + (1 + ζ·x_l,m)(1 − x_s,m) · R_{m,i}
//! ẋ_s,m = β · x_s,m · (C_m − γ)
//! ẋ_l,m = α · (C_m − δ)
//! ```
//!
//! where `q_{m,i} = ±1` is the literal polarity. The memory terms are what
//! makes the gate *terminal agnostic*: information flows from outputs back
//! to inputs until the gate self-organizes into a satisfied configuration.
//!
//! This module computes the per-clause quantities; [`crate::dmm`]'s one
//! integrator assembles and integrates the full system for SAT and
//! weighted MaxSAT alike.
//!
//! [`ClauseDynamics`] is the readable definition: one method per symbol
//! above, each recomputing the literal terms it needs. The integrator does
//! not run through it. It runs one clause step, `ClauseTable::step`, over
//! one packed record per clause (weight, width, literals inline up to
//! width 3). Per clause it
//! evaluates the `1 − q·v` terms once, derives `C_m`, the argmin and every
//! `min_{j≠i}` from that single pass (3 term evaluations at width 3
//! instead of 21), adds the drive to `v̇` and moves `x_s` and `x_l` on
//! locals. Widths 1–3 run that pass unrolled with selects and no branch;
//! wider clauses run it as a loop. SAT is the weighted step at weight 1.
//!
//! The step runs `L` trajectories of one formula in lockstep over a
//! lane-major state (`v[i·L + k]` is lane `k` of variable `i`): a record
//! is decoded once per step for every lane, and each lane's arithmetic is
//! a straight loop over the lanes, which LLVM vectorises. A lone
//! trajectory is the `L = 1` instance of the same step; there the selects
//! are `select_unpredictable` and the argmin's share is written over its
//! slot by index, where wider instances choose each literal's operands by
//! a select the vectoriser turns into blends. In every lane, every
//! floating-point operation is the definition's, in its order, and the
//! definitional methods are the oracle the tests compare against, bit for
//! bit.
//!
//! # Example
//!
//! ```
//! use mem::cnf::{Clause, Literal};
//! use mem::solg::ClauseDynamics;
//!
//! let clause = Clause::new(vec![Literal::positive(0), Literal::negative(1)])?;
//! let dyn_ = ClauseDynamics::new(&clause);
//! // v0 = 1 satisfies the first literal: C = 0.
//! assert_eq!(dyn_.unsatisfaction(&[1.0, 1.0]), 0.0);
//! // v = (−1, 1) violates both literals maximally: C = 1.
//! assert_eq!(dyn_.unsatisfaction(&[-1.0, 1.0]), 1.0);
//! # Ok::<(), mem::MemError>(())
//! ```

use crate::cnf::{Clause, Formula};
use crate::dmm::{ALPHA, BETA, DELTA, DT, EPSILON, GAMMA, ZETA};
use std::hint::select_unpredictable;

/// Precomputed per-clause dynamics: variable indices and polarities.
#[derive(Debug, Clone, PartialEq)]
pub struct ClauseDynamics {
    vars: Vec<usize>,
    polarities: Vec<f64>,
}

impl ClauseDynamics {
    /// Extracts the dynamics data from a clause.
    #[must_use]
    pub fn new(clause: &Clause) -> Self {
        ClauseDynamics {
            vars: clause.literals().iter().map(|l| l.var()).collect(),
            polarities: clause.literals().iter().map(|l| l.polarity()).collect(),
        }
    }

    /// The variable indices of the clause's literals.
    #[cfg(test)]
    #[must_use]
    fn vars(&self) -> &[usize] {
        &self.vars
    }

    /// The ±1 polarities `q_{m,i}`.
    #[must_use]
    pub fn polarities(&self) -> &[f64] {
        &self.polarities
    }

    /// Clause width.
    #[must_use]
    pub fn len(&self) -> usize {
        self.vars.len()
    }

    /// Never true — clauses are non-empty by construction.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.vars.is_empty()
    }

    /// The literal terms `1 − q_i·v_i` (each in `[0, 2]` for `v ∈ [−1,1]`).
    fn literal_terms<'a>(&'a self, v: &'a [f64]) -> impl Iterator<Item = f64> + 'a {
        self.vars
            .iter()
            .zip(&self.polarities)
            .map(move |(&var, &q)| 1.0 - q * v[var])
    }

    /// The clause unsatisfaction `C_m(v) ∈ [0, 1]`: 0 when some literal is
    /// fully satisfied (`q·v = 1`), 1 when every literal is maximally
    /// violated.
    #[must_use]
    pub fn unsatisfaction(&self, v: &[f64]) -> f64 {
        0.5 * self.literal_terms(v).fold(f64::INFINITY, f64::min).max(0.0)
    }

    /// The index (within the clause) of the minimizing literal — the one
    /// closest to satisfying the clause.
    #[cfg(test)]
    #[must_use]
    fn argmin_literal(&self, v: &[f64]) -> usize {
        let mut best = 0;
        let mut best_term = f64::INFINITY;
        for (i, term) in self.literal_terms(v).enumerate() {
            if term < best_term {
                best_term = term;
                best = i;
            }
        }
        best
    }

    /// The gradient-like drive `G_{m,i} = ½·q_i·min_{j≠i}(1 − q_j·v_j)` for
    /// the clause's `i`-th literal. For unit clauses the empty minimum is
    /// taken as 1 (full drive toward satisfaction).
    #[must_use]
    pub fn gradient(&self, v: &[f64], i: usize) -> f64 {
        let mut min_other = f64::INFINITY;
        for (j, term) in self.literal_terms(v).enumerate() {
            if j != i {
                min_other = min_other.min(term);
            }
        }
        if min_other.is_infinite() {
            min_other = 1.0;
        }
        0.5 * self.polarities[i] * min_other
    }

    /// The rigidity drive `R_{m,i}`: `½·(q_i − v_i)` when `i` is the
    /// minimizing literal, 0 otherwise. It holds the best literal at its
    /// satisfying rail while the others are free.
    #[cfg(test)]
    #[must_use]
    fn rigidity(&self, v: &[f64], i: usize) -> f64 {
        if self.argmin_literal(v) == i {
            0.5 * (self.polarities[i] - v[self.vars[i]])
        } else {
            0.0
        }
    }
}

/// One literal of a [`ClauseTable`] record: its variable and its polarity
/// `q = ±1`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Lit {
    var: usize,
    q: f64,
}

/// One clause as the step reads it: its weight, its width and, for widths
/// up to three, its literals inline. A wider clause's literals are
/// `ClauseTable::wide[wide..wide + width]`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Record {
    weight: f64,
    width: usize,
    head: [Lit; 3],
    wide: usize,
}

/// Every clause of a formula as one packed record, with the ceiling of its
/// long memories: the clause kernel of the one integrator, for SAT and
/// weighted MaxSAT. SAT is the weighted step at weight 1.0,
/// which is bit-exact: `1.0·c`, `γ·1.0` and `α·1.0` round to themselves.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ClauseTable {
    records: Vec<Record>,
    wide: Vec<Lit>,
    x_l_max: f64,
}

impl ClauseTable {
    /// The table of `formula` with clause `m` weighted by the `m`-th item
    /// of `weights`.
    pub(crate) fn new(formula: &Formula, weights: impl IntoIterator<Item = f64>) -> Self {
        let mut wide = Vec::new();
        let records = formula
            .clauses()
            .iter()
            .zip(weights)
            .map(|(clause, weight)| {
                let lits = clause.literals().iter().map(|l| Lit {
                    var: l.var(),
                    q: l.polarity(),
                });
                let mut record = Record {
                    weight,
                    width: clause.len(),
                    head: [Lit { var: 0, q: 0.0 }; 3],
                    wide: wide.len(),
                };
                if clause.len() <= 3 {
                    for (slot, lit) in record.head.iter_mut().zip(lits) {
                        *slot = lit;
                    }
                } else {
                    wide.extend(lits);
                }
                record
            })
            .collect();
        ClauseTable {
            records,
            wide,
            x_l_max: 1e4 * (formula.len().max(1) as f64),
        }
    }

    /// The ceiling of the long memory `x_l`.
    pub(crate) fn x_l_max(&self) -> f64 {
        self.x_l_max
    }

    /// The clause part of one clamped-Euler step of `L` trajectories in
    /// lockstep, in clause order. The state is lane-major: lane `k` of
    /// variable `i` is `v[i·L + k]`, of clause `m`'s memory `x_s[m·L + k]`,
    /// and `dv` is laid out as `v`. Per lane, `dv` becomes
    /// `Σ_m w_m·(x_l·x_s·G_{m,i} + (1 + ζ·x_l)(1 − x_s)·R_{m,i})`, and each
    /// clause's memory moves by
    ///
    /// ```text
    /// ẋ_s = β · x_s · (w·C_m − γ·w)      clamped to [ε, 1 − ε]
    /// ẋ_l = α · w · (C_m − δ)            clamped to [1, x_l^max]
    /// ```
    ///
    /// taken at the memory's value before the step. No clause's drive reads
    /// another clause's memory, so the order of the updates is free; the
    /// clause order is kept for `dv`'s additions. No lane reads another
    /// lane: each runs the arithmetic of `step::<1>` on its own state, and
    /// a clause record is decoded once for all of them.
    #[expect(
        clippy::manual_clamp,
        reason = "`clamp` with constant bounds compiles to branches in the one-lane step"
    )]
    pub(crate) fn step<const L: usize>(
        &self,
        v: &[f64],
        x_s: &mut [f64],
        x_l: &mut [f64],
        dv: &mut [f64],
    ) {
        dv.fill(0.0);
        let (x_s, x_l) = (x_s.as_chunks_mut::<L>().0, x_l.as_chunks_mut::<L>().0);
        for ((record, x_s), x_l) in self.records.iter().zip(x_s).zip(x_l) {
            let w = record.weight;
            let c = self.drive(record, v, x_s, x_l, dv);
            for lane in 0..L {
                let (s, l) = (x_s[lane], x_l[lane]);
                let dx_s = BETA * s * (w * c[lane] - GAMMA * w);
                let dx_l = ALPHA * w * (c[lane] - DELTA);
                // `max` then `min` is `clamp` on every value that is not
                // NaN, and no memory is (weights are positive and finite).
                // With constant bounds LLVM pairs the two updates into one
                // vector compare and branches on its lanes, which the
                // predictor loses; `max`/`min` stay branch-free.
                x_s[lane] = (s + DT * dx_s).max(EPSILON).min(1.0 - EPSILON);
                x_l[lane] = (l + DT * dx_l).max(1.0).min(self.x_l_max);
            }
        }
    }

    /// One clause's drive in every lane: adds
    /// `weight · (x_l·x_s·G_i + (1 + ζ·x_l)(1 − x_s)·R_i)` to `dv` for each
    /// of its literals and returns its unsatisfaction `C_m(v)`.
    ///
    /// One pass over the literal terms finds the minimum, its first index
    /// (the argmin) and the minimum over the *other* literals; then
    /// `min_{j≠i}` is that runner-up for the argmin and the minimum itself
    /// for everyone else. Terms are finite and never `-0.0`, so these are
    /// the values [`ClauseDynamics::gradient`]'s per-literal folds produce.
    /// Widths 1–3 run that pass unrolled and branch-free; wider clauses
    /// run it as a loop.
    #[inline]
    fn drive<const L: usize>(
        &self,
        record: &Record,
        v: &[f64],
        x_s: &[f64; L],
        x_l: &[f64; L],
        dv: &mut [f64],
    ) -> [f64; L] {
        let mut drive = Drive {
            weight: record.weight,
            pull: [0.0; L],
            hold: [0.0; L],
        };
        for lane in 0..L {
            drive.pull[lane] = x_l[lane] * x_s[lane];
            drive.hold[lane] = (1.0 + ZETA * x_l[lane]) * (1.0 - x_s[lane]);
        }
        match record.width {
            1 => drive.narrow::<1>(&record.head, v, dv),
            2 => drive.narrow::<2>(&record.head, v, dv),
            3 => drive.narrow::<3>(&record.head, v, dv),
            width => drive.wide(&self.wide[record.wide..record.wide + width], v, dv),
        }
    }
}

/// `if cond { a } else { b }` without a branch. One lane takes
/// [`select_unpredictable`]; across lanes the plain `if` is what LLVM
/// turns into vector blends, which `select_unpredictable` would block.
#[inline(always)]
fn pick<const L: usize, T>(cond: bool, a: T, b: T) -> T {
    if L == 1 {
        select_unpredictable(cond, a, b)
    } else if cond {
        a
    } else {
        b
    }
}

/// A clause's drive coefficients for one step, per lane: its weight, the
/// gradient factor `x_l·x_s` and the rigidity factor
/// `(1 + ζ·x_l)(1 − x_s)`.
struct Drive<const L: usize> {
    weight: f64,
    pull: [f64; L],
    hold: [f64; L],
}

impl<const L: usize> Drive<L> {
    /// One literal's share in `lane`:
    /// `weight · (pull·½·q·min_{j≠i} + hold·R_i)`.
    #[inline(always)]
    fn share(&self, lane: usize, q: f64, min_other: f64, rigidity: f64) -> f64 {
        let gradient = 0.5 * q * min_other;
        self.weight * (self.pull[lane] * gradient + self.hold[lane] * rigidity)
    }

    /// The pass for a clause of `N ≤ 3` literals, unrolled and without a
    /// branch: which literal is the argmin is a coin toss the branch
    /// predictor loses. Each `<` chooses by a select. One lane then takes
    /// every literal's share as a non-argmin's and writes the argmin's
    /// over its slot by index; across lanes that write would be a
    /// scatter, so each literal instead selects between the argmin's
    /// operands `(runner-up, ½·(q − v))` and everyone else's `(min, 0)`.
    /// Either way the shares are the same and reach `dv` in literal order.
    #[inline(always)]
    fn narrow<const N: usize>(&self, head: &[Lit; 3], v: &[f64], dv: &mut [f64]) -> [f64; L] {
        let lits = &head[..N];
        let mut values = [[0.0; L]; N];
        let mut min = [f64::INFINITY; L];
        let mut argmin = [0; L];
        let mut runner_up = [f64::INFINITY; L];
        for (i, lit) in lits.iter().enumerate() {
            values[i].copy_from_slice(&v[lit.var * L..][..L]);
            for lane in 0..L {
                let term = 1.0 - lit.q * values[i][lane];
                let lower = term < min[lane];
                argmin[lane] = pick::<L, _>(lower, i, argmin[lane]);
                // The loop's `if term < min { runner_up = min } else if term
                // < runner_up { runner_up = term }` as a max of two mins (min
                // ≤ runner_up throughout), so that each select has a
                // comparison of its own: x86 has no branch-free select of a
                // float on flags that an integer select also reads.
                let second = pick::<L, _>(term < runner_up[lane], term, runner_up[lane]);
                runner_up[lane] = pick::<L, _>(min[lane] < second, second, min[lane]);
                min[lane] = pick::<L, _>(lower, term, min[lane]);
            }
        }
        // A unit clause has no other literal: full drive. Two or more
        // finite terms leave a finite runner-up.
        if N == 1 {
            runner_up = [1.0; L];
        }
        let c = min.map(|min| 0.5 * min.max(0.0));
        if L == 1 {
            let mut shares = [0.0; N];
            for (share, lit) in shares.iter_mut().zip(lits) {
                *share = self.share(0, lit.q, min[0], 0.0);
            }
            let a = argmin[0];
            let q = lits[a].q;
            shares[a] = self.share(0, q, runner_up[0], 0.5 * (q - values[a][0]));
            for (lit, share) in lits.iter().zip(shares) {
                dv[lit.var] += share;
            }
            return c;
        }
        for (i, lit) in lits.iter().enumerate() {
            let dv = &mut dv[lit.var * L..][..L];
            for lane in 0..L {
                let held = argmin[lane] == i;
                let min_other = pick::<L, _>(held, runner_up[lane], min[lane]);
                let rigidity = pick::<L, _>(held, 0.5 * (lit.q - values[i][lane]), 0.0);
                dv[lane] += self.share(lane, lit.q, min_other, rigidity);
            }
        }
        c
    }

    /// The pass for a clause of any width, as a loop, one lane at a time.
    fn wide(&self, lits: &[Lit], v: &[f64], dv: &mut [f64]) -> [f64; L] {
        let mut c = [0.0; L];
        for (lane, c) in c.iter_mut().enumerate() {
            let mut min = f64::INFINITY;
            let mut argmin = 0;
            let mut runner_up = f64::INFINITY;
            for (i, lit) in lits.iter().enumerate() {
                let term = 1.0 - lit.q * v[lit.var * L + lane];
                if term < min {
                    runner_up = min;
                    min = term;
                    argmin = i;
                } else if term < runner_up {
                    runner_up = term;
                }
            }
            // No finite other literal: full drive, as in `ClauseDynamics::gradient`.
            if runner_up.is_infinite() {
                runner_up = 1.0;
            }
            for (i, lit) in lits.iter().enumerate() {
                let at = lit.var * L + lane;
                let (min_other, rigidity) = if i == argmin {
                    (runner_up, 0.5 * (lit.q - v[at]))
                } else {
                    (min, 0.0)
                };
                dv[at] += self.share(lane, lit.q, min_other, rigidity);
            }
            *c = 0.5 * min.max(0.0);
        }
        c
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::cnf::Literal;

    fn clause3() -> ClauseDynamics {
        // (x0 ∨ ¬x1 ∨ x2)
        ClauseDynamics::new(
            &Clause::new(vec![
                Literal::positive(0),
                Literal::negative(1),
                Literal::positive(2),
            ])
            .unwrap(),
        )
    }

    #[test]
    fn unsatisfaction_range() {
        let d = clause3();
        // All literals satisfied at the rails.
        assert_eq!(d.unsatisfaction(&[1.0, -1.0, 1.0]), 0.0);
        // All maximally violated.
        assert_eq!(d.unsatisfaction(&[-1.0, 1.0, -1.0]), 1.0);
        // Anything in between is within [0, 1].
        let c = d.unsatisfaction(&[0.3, 0.2, -0.5]);
        assert!((0.0..=1.0).contains(&c));
    }

    #[test]
    fn unsatisfaction_zero_iff_some_literal_at_rail() {
        let d = clause3();
        assert_eq!(d.unsatisfaction(&[1.0, 1.0, -1.0]), 0.0); // x0 = 1 wins
        assert!(d.unsatisfaction(&[0.9, 1.0, -1.0]) > 0.0);
    }

    #[test]
    fn argmin_picks_best_literal() {
        let d = clause3();
        // x2 closest to its rail.
        assert_eq!(d.argmin_literal(&[0.0, 0.0, 0.9]), 2);
        // ¬x1 with v1 = −0.95 is the best.
        assert_eq!(d.argmin_literal(&[0.0, -0.95, 0.5]), 1);
    }

    #[test]
    fn gradient_sign_pushes_toward_satisfaction() {
        let d = clause3();
        let v = [-0.5, 0.5, -0.5];
        // Positive literal x0: gradient positive (push v0 up).
        assert!(d.gradient(&v, 0) > 0.0);
        // Negative literal ¬x1: gradient negative (push v1 down).
        assert!(d.gradient(&v, 1) < 0.0);
    }

    #[test]
    fn gradient_vanishes_when_another_literal_satisfied() {
        let d = clause3();
        // x2 at its rail satisfies the clause: other literals feel no drive.
        let v = [0.0, 0.0, 1.0];
        assert_eq!(d.gradient(&v, 0), 0.0);
        assert_eq!(d.gradient(&v, 1), 0.0);
    }

    #[test]
    fn rigidity_only_on_argmin() {
        let d = clause3();
        let v = [0.2, 0.1, 0.8];
        let am = d.argmin_literal(&v);
        for i in 0..3 {
            if i == am {
                assert_ne!(d.rigidity(&v, i), 0.0);
            } else {
                assert_eq!(d.rigidity(&v, i), 0.0);
            }
        }
    }

    #[test]
    fn rigidity_pulls_to_rail() {
        // Unit clause (x0): rigidity drives v0 toward +1.
        let d = ClauseDynamics::new(&Clause::new(vec![Literal::positive(0)]).unwrap());
        assert!(d.rigidity(&[0.0], 0) > 0.0);
        assert_eq!(d.rigidity(&[1.0], 0), 0.0);
    }

    #[test]
    fn unit_clause_gradient_full_drive() {
        let d = ClauseDynamics::new(&Clause::new(vec![Literal::negative(3)]).unwrap());
        let v = [0.0, 0.0, 0.0, 0.5];
        assert_eq!(d.gradient(&v, 0), -0.5);
    }

    /// A clause's part of a step spelled with the definitional methods:
    /// `unsatisfaction`, then per literal `gradient` and `rigidity` — what
    /// the integrators ran before [`ClauseTable::step`], and the oracle
    /// their tests replay whole trajectories against.
    pub(crate) fn definitional_drive(
        d: &ClauseDynamics,
        v: &[f64],
        (x_s, x_l, weight): (f64, f64, f64),
        dv: &mut [f64],
    ) -> f64 {
        let c = d.unsatisfaction(v);
        for i in 0..d.len() {
            let g = d.gradient(v, i);
            let r = d.rigidity(v, i);
            dv[d.vars()[i]] += weight * (x_l * x_s * g + (1.0 + ZETA * x_l) * (1.0 - x_s) * r);
        }
        c
    }

    #[test]
    fn one_pass_drive_equals_the_definition_bit_for_bit() {
        use crate::cnf::Formula;
        use numerics::rng::{rng_from_seed, shuffle, Rng};
        let mut rng = rng_from_seed(20);
        let n = 9;
        for round in 0..2_000 {
            let width = 1 + round % 5;
            let mut vars: Vec<usize> = (0..n).collect();
            shuffle(&mut rng, &mut vars);
            let clause = Clause::new(
                vars[..width]
                    .iter()
                    .map(|&var| {
                        if rng.gen::<bool>() {
                            Literal::positive(var)
                        } else {
                            Literal::negative(var)
                        }
                    })
                    .collect(),
            )
            .unwrap();
            // Interior points, the rails, and exact ties between literals.
            let v: Vec<f64> = (0..n)
                .map(|_| match rng.gen_range(0..8usize) {
                    0 => 1.0,
                    1 => -1.0,
                    2 => 0.5,
                    3 => -0.5,
                    _ => rng.gen_range(-1.0..1.0),
                })
                .collect();
            let x_s = rng.gen_range(1e-3..0.999);
            let x_l = rng.gen_range(1.0..50.0);
            let weight = if round % 2 == 0 {
                1.0
            } else {
                rng.gen_range(0.01..1.0)
            };
            // A buffer with history: `+=` must see the same addends.
            let mut expected: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
            expected[vars[0]] = -0.0;
            let mut got = expected.clone();
            let c = definitional_drive(
                &ClauseDynamics::new(&clause),
                &v,
                (x_s, x_l, weight),
                &mut expected,
            );
            let formula = Formula::new(n, vec![clause]).unwrap();
            let table = ClauseTable::new(&formula, [weight]);
            let [c_table] = table.drive(&table.records[0], &v, &[x_s], &[x_l], &mut got);
            assert_eq!(c.to_bits(), c_table.to_bits(), "round {round}");
            for (e, g) in expected.iter().zip(&got) {
                assert_eq!(e.to_bits(), g.to_bits(), "round {round}: v = {v:?}");
            }
        }
    }

    /// [`ClauseTable::step`] spelled with the definition: per clause,
    /// [`definitional_drive`] and then the weighted memory update.
    fn definitional_step(
        clauses: &[ClauseDynamics],
        weights: &[f64],
        v: &[f64],
        (x_s, x_l): (&mut [f64], &mut [f64]),
    ) -> Vec<f64> {
        let xl_max = 1e4 * (clauses.len().max(1) as f64);
        let mut dv = vec![0.0; v.len()];
        for (mi, clause) in clauses.iter().enumerate() {
            let w = weights[mi];
            let c = definitional_drive(clause, v, (x_s[mi], x_l[mi], w), &mut dv);
            let dx_s = BETA * x_s[mi] * (w * c - GAMMA * w);
            let dx_l = ALPHA * w * (c - DELTA);
            x_s[mi] = (x_s[mi] + DT * dx_s).clamp(EPSILON, 1.0 - EPSILON);
            x_l[mi] = (x_l[mi] + DT * dx_l).clamp(1.0, xl_max);
        }
        dv
    }

    #[test]
    fn step_equals_the_definition_bit_for_bit() {
        // Widths 1 to 5, unit and random weights: every arm, and the whole
        // state after each of 300 Euler steps.
        use crate::dmm::tests::mixed_widths;
        use numerics::rng::{rng_from_seed, Rng};
        for seed in 0..6u64 {
            let formula = mixed_widths(12, 60, seed);
            let (n, m) = (formula.n_vars(), formula.len());
            let mut rng = rng_from_seed(seed);
            let weights: Vec<f64> = (0..m)
                .map(|_| {
                    if seed % 2 == 0 {
                        1.0
                    } else {
                        rng.gen_range(0.01..1.0)
                    }
                })
                .collect();
            let table = ClauseTable::new(&formula, weights.iter().copied());
            let clauses: Vec<ClauseDynamics> =
                formula.clauses().iter().map(ClauseDynamics::new).collect();
            let mut v: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let (mut x_s, mut x_l) = (vec![0.5; m], vec![1.0; m]);
            let (mut x_s_def, mut x_l_def) = (x_s.clone(), x_l.clone());
            let mut dv = vec![0.0; n];
            for step in 0..300 {
                table.step::<1>(&v, &mut x_s, &mut x_l, &mut dv);
                let dv_def =
                    definitional_step(&clauses, &weights, &v, (&mut x_s_def, &mut x_l_def));
                for (got, want) in [(&dv, &dv_def), (&x_s, &x_s_def), (&x_l, &x_l_def)] {
                    for (g, w) in got.iter().zip(want) {
                        assert_eq!(g.to_bits(), w.to_bits(), "seed {seed}, step {step}");
                    }
                }
                for (vi, d) in v.iter_mut().zip(&dv) {
                    *vi = (*vi + DT * d).clamp(-1.0, 1.0);
                }
            }
        }
    }

    /// [`ClauseTable::step`] over `L` lanes against [`definitional_step`]
    /// on each lane's own state, after each of 300 Euler steps.
    fn assert_lanes_step_by_the_definition<const L: usize>(seed: u64) {
        use crate::dmm::tests::mixed_widths;
        use numerics::rng::{rng_from_seed, Rng};
        let formula = mixed_widths(12, 60, seed);
        let (n, m) = (formula.n_vars(), formula.len());
        let mut rng = rng_from_seed(seed);
        let weights: Vec<f64> = (0..m).map(|_| rng.gen_range(0.01..1.0)).collect();
        let table = ClauseTable::new(&formula, weights.iter().copied());
        let clauses: Vec<ClauseDynamics> =
            formula.clauses().iter().map(ClauseDynamics::new).collect();
        // Lane-major state, and each lane's own copy.
        let mut v: Vec<f64> = (0..n * L).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let mut x_s: Vec<f64> = (0..m * L).map(|_| rng.gen_range(0.01..0.99)).collect();
        let mut x_l: Vec<f64> = (0..m * L).map(|_| rng.gen_range(1.0..20.0)).collect();
        let lane_of = |state: &[f64], lane: usize| -> Vec<f64> {
            state.iter().skip(lane).step_by(L).copied().collect()
        };
        let mut lanes: Vec<_> = (0..L)
            .map(|lane| (lane_of(&v, lane), lane_of(&x_s, lane), lane_of(&x_l, lane)))
            .collect();
        let mut dv = vec![0.0; n * L];
        for step in 0..300 {
            table.step::<L>(&v, &mut x_s, &mut x_l, &mut dv);
            for (lane, (v_def, x_s_def, x_l_def)) in lanes.iter_mut().enumerate() {
                let dv_def = definitional_step(&clauses, &weights, v_def, (x_s_def, x_l_def));
                for (got, want) in [(&dv, &dv_def), (&x_s, x_s_def), (&x_l, x_l_def)] {
                    for (g, w) in got.iter().skip(lane).step_by(L).zip(want.iter()) {
                        assert_eq!(
                            g.to_bits(),
                            w.to_bits(),
                            "{L} lanes, lane {lane}, step {step}"
                        );
                    }
                }
                for (vi, d) in v_def.iter_mut().zip(&dv_def) {
                    *vi = (*vi + DT * d).clamp(-1.0, 1.0);
                }
            }
            for (vi, d) in v.iter_mut().zip(&dv) {
                *vi = (*vi + DT * d).clamp(-1.0, 1.0);
            }
        }
    }

    #[test]
    fn lockstep_step_equals_the_definition_in_every_lane() {
        // The integrator's two widths and an odd one, every arm of the
        // clause step.
        for seed in 0..3 {
            assert_lanes_step_by_the_definition::<1>(seed);
            assert_lanes_step_by_the_definition::<3>(seed);
            assert_lanes_step_by_the_definition::<20>(seed);
        }
    }

    #[test]
    fn drive_scales_with_weight_and_indexes_the_right_clause() {
        use crate::cnf::Formula;
        let clauses = vec![
            Clause::new(vec![Literal::negative(1)]).unwrap(),
            Clause::new(vec![
                Literal::positive(0),
                Literal::negative(1),
                Literal::positive(2),
            ])
            .unwrap(),
        ];
        let formula = Formula::new(3, clauses).unwrap();
        let table = ClauseTable::new(&formula, [1.0, 1.0]);
        let v = [-0.5, 0.5, -0.5];
        let mut dv = vec![0.0; 3];
        let [c] = table.drive(&table.records[1], &v, &[0.5], &[2.0], &mut dv);
        assert_eq!(c, clause3().unsatisfaction(&v));
        // Every variable in the clause receives a push.
        assert!(dv.iter().all(|&x| x != 0.0));
        // Doubling the weight doubles the contribution.
        let doubled = ClauseTable::new(&formula, [1.0, 2.0]);
        let mut dv2 = vec![0.0; 3];
        doubled.drive(&doubled.records[1], &v, &[0.5], &[2.0], &mut dv2);
        for (a, b) in dv.iter().zip(&dv2) {
            assert!((2.0 * a - b).abs() < 1e-12);
        }
        // The unit clause touches its own variable only.
        let mut unit = vec![0.0; 3];
        table.drive(&table.records[0], &v, &[0.5], &[2.0], &mut unit);
        assert!(unit[0] == 0.0 && unit[1] != 0.0 && unit[2] == 0.0);
    }
}

//! Stochastic local search baseline: WalkSAT.
//!
//! The "traditional algorithmic approaches" the paper's §IV compares
//! against. WalkSAT (Selman–Kautz–Cohen): pick a violated clause; with
//! probability 0.5 flip a random variable in it, otherwise flip the
//! variable minimizing the break count, with restarts.
//!
//! It reports its work in *flips*, the standard cost unit for
//! local-search SAT solvers, so scaling plots can compare machine-agnostic
//! costs against the DMM's integration steps.
//!
//! # Example
//!
//! ```
//! use mem::generators::planted_3sat;
//! use mem::walksat::{WalkSat, WalkSatParams};
//!
//! let inst = planted_3sat(20, 4.0, 3)?;
//! let result = WalkSat::new(WalkSatParams::default()).solve(&inst.formula, 1);
//! let solution = result.solution.expect("planted instance solvable");
//! assert!(inst.formula.is_satisfied(&solution));
//! # Ok::<(), mem::MemError>(())
//! ```

use crate::assignment::Assignment;
use crate::cnf::Formula;
use numerics::rng::rng_from_seed;
use numerics::rng::Rng;

/// Random-walk probability (the SKC noise parameter, 0.5 as is usual for
/// random 3-SAT).
const NOISE: f64 = 0.5;

/// WalkSAT's budget.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WalkSatParams {
    /// Maximum flips per try.
    pub max_flips: u64,
    /// Number of restarts.
    pub max_tries: u32,
}

impl Default for WalkSatParams {
    fn default() -> Self {
        WalkSatParams {
            max_flips: 100_000,
            max_tries: 10,
        }
    }
}

/// Result of a local-search run.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchResult {
    /// The satisfying assignment, when found.
    pub solution: Option<Assignment>,
    /// Total variable flips performed.
    pub flips: u64,
    /// Tries run, the solving one included.
    pub tries: u32,
    /// Fewest violated clauses seen (0 when solved).
    pub best_unsat: usize,
}

/// The WalkSAT/SKC solver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WalkSat {
    params: WalkSatParams,
}

impl WalkSat {
    /// Creates a solver.
    #[must_use]
    pub fn new(params: WalkSatParams) -> Self {
        WalkSat { params }
    }

    /// Solves (or gives up on) a formula.
    #[must_use]
    pub fn solve(&self, formula: &Formula, seed: u64) -> SearchResult {
        let mut rng = rng_from_seed(seed);
        let n = formula.n_vars();
        let occ = formula.occurrence_lists();
        let mut total_flips = 0u64;
        let mut best_unsat = usize::MAX;
        // At least one try, whatever the budget says.
        let tries = self.params.max_tries.max(1);
        for try_no in 0..tries {
            let mut assignment = Assignment::random(n, &mut rng);
            // Track violated clauses incrementally.
            let mut unsat: Vec<usize> = formula.unsatisfied_clauses(&assignment);
            best_unsat = best_unsat.min(unsat.len());
            if unsat.is_empty() {
                return SearchResult {
                    solution: Some(assignment),
                    flips: total_flips,
                    tries: try_no + 1,
                    best_unsat: 0,
                };
            }
            for _ in 0..self.params.max_flips {
                // Pick a random violated clause.
                let ci = unsat[rng.gen_range(0..unsat.len())];
                let clause = &formula.clauses()[ci];
                let flip_var = if rng.gen::<f64>() < NOISE {
                    clause.literals()[rng.gen_range(0..clause.len())].var()
                } else {
                    // Minimize break count: clauses that become violated.
                    let mut best_var = clause.literals()[0].var();
                    let mut best_break = usize::MAX;
                    for lit in clause.literals() {
                        let v = lit.var();
                        assignment.flip(v);
                        let breaks = occ[v]
                            .iter()
                            .filter(|&&c| !formula.clauses()[c].is_satisfied(&assignment))
                            .count();
                        assignment.flip(v);
                        if breaks < best_break {
                            best_break = breaks;
                            best_var = v;
                        }
                    }
                    best_var
                };
                assignment.flip(flip_var);
                total_flips += 1;
                // Recompute affected clauses only.
                unsat.retain(|&c| !formula.clauses()[c].is_satisfied(&assignment));
                for &c in &occ[flip_var] {
                    if !formula.clauses()[c].is_satisfied(&assignment) && !unsat.contains(&c) {
                        unsat.push(c);
                    }
                }
                best_unsat = best_unsat.min(unsat.len());
                if unsat.is_empty() {
                    return SearchResult {
                        solution: Some(assignment),
                        flips: total_flips,
                        tries: try_no + 1,
                        best_unsat: 0,
                    };
                }
            }
        }
        SearchResult {
            solution: None,
            flips: total_flips,
            tries,
            best_unsat,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cnf::{Clause, Literal};
    use crate::generators::{planted_3sat, random_ksat};

    #[test]
    fn walksat_solves_planted_instances() {
        for seed in 0..3 {
            let inst = planted_3sat(30, 4.0, seed).unwrap();
            let result = WalkSat::new(WalkSatParams::default()).solve(&inst.formula, seed);
            let sol = result.solution.expect("solvable");
            assert!(inst.formula.is_satisfied(&sol));
            assert_eq!(result.best_unsat, 0);
        }
    }

    /// x0 ∧ ¬x0, as two unit clauses.
    fn contradiction() -> Formula {
        Formula::new(
            1,
            vec![
                Clause::new(vec![Literal::positive(0)]).unwrap(),
                Clause::new(vec![Literal::negative(0)]).unwrap(),
            ],
        )
        .unwrap()
    }

    #[test]
    fn walksat_gives_up_on_unsat() {
        let f = contradiction();
        let params = WalkSatParams {
            max_flips: 200,
            max_tries: 2,
        };
        let result = WalkSat::new(params).solve(&f, 1);
        assert!(result.solution.is_none());
        assert_eq!(result.best_unsat, 1);
        assert_eq!((result.tries, result.flips), (2, 400));
    }

    #[test]
    fn a_zero_try_budget_reports_the_one_try_it_runs() {
        let f = contradiction();
        let params = WalkSatParams {
            max_flips: 10,
            max_tries: 0,
        };
        let result = WalkSat::new(params).solve(&f, 1);
        assert!(result.solution.is_none());
        assert_eq!((result.tries, result.flips), (1, 10));
    }

    #[test]
    fn walksat_deterministic_per_seed() {
        let f = random_ksat(20, 3, 4.0, 5).unwrap();
        let a = WalkSat::new(WalkSatParams::default()).solve(&f, 7);
        let b = WalkSat::new(WalkSatParams::default()).solve(&f, 7);
        assert_eq!(a, b);
    }

    #[test]
    fn trivial_formula_immediate() {
        let f = Formula::new(2, vec![]).unwrap();
        let result = WalkSat::new(WalkSatParams::default()).solve(&f, 1);
        assert!(result.solution.is_some());
        assert_eq!(result.flips, 0);
    }
}

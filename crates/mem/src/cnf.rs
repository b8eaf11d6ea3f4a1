//! Boolean formulas in conjunctive normal form.
//!
//! [`Literal`] packs a variable index and polarity; [`Clause`] is a
//! disjunction of literals; [`Formula`] is the conjunction. The DMM solver,
//! the classical baselines, and the generators all operate on these types.
//!
//! # Example
//!
//! ```
//! use mem::cnf::{Clause, Formula, Literal};
//! use mem::assignment::Assignment;
//!
//! // (x0 ∨ ¬x1) ∧ (x1)
//! let formula = Formula::new(2, vec![
//!     Clause::new(vec![Literal::positive(0), Literal::negative(1)])?,
//!     Clause::new(vec![Literal::positive(1)])?,
//! ])?;
//! let assignment = Assignment::from_bools(&[true, true]);
//! assert!(formula.is_satisfied(&assignment));
//! # Ok::<(), mem::MemError>(())
//! ```

use crate::assignment::Assignment;
use crate::MemError;

/// A literal: a variable with a polarity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Literal {
    var: usize,
    negated: bool,
}

impl Literal {
    /// The positive literal `x_var`.
    #[must_use]
    pub fn positive(var: usize) -> Self {
        Literal {
            var,
            negated: false,
        }
    }

    /// The negative literal `¬x_var`.
    #[must_use]
    pub fn negative(var: usize) -> Self {
        Literal { var, negated: true }
    }

    /// Builds from DIMACS convention: `3` = `x2` (1-based), `-3` = `¬x2`.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::Formula`] for `0`.
    pub fn from_dimacs(code: i64) -> Result<Self, MemError> {
        if code == 0 {
            return Err(MemError::Formula {
                reason: "dimacs literal 0 is the clause terminator".into(),
            });
        }
        Ok(Literal {
            var: code.unsigned_abs() as usize - 1,
            negated: code < 0,
        })
    }

    /// The DIMACS encoding of this literal.
    #[must_use]
    pub fn to_dimacs(self) -> i64 {
        let v = self.var as i64 + 1;
        if self.negated {
            -v
        } else {
            v
        }
    }

    /// The variable index (0-based).
    #[must_use]
    pub fn var(self) -> usize {
        self.var
    }

    /// Whether the literal is negated.
    #[must_use]
    pub fn is_negated(self) -> bool {
        self.negated
    }

    /// The literal's polarity as ±1 (the `q` coefficient of the SOLG
    /// dynamics).
    #[must_use]
    pub(crate) fn polarity(self) -> f64 {
        if self.negated {
            -1.0
        } else {
            1.0
        }
    }

    /// Evaluates under a boolean value of its variable.
    #[must_use]
    pub fn eval(self, value: bool) -> bool {
        value != self.negated
    }
}

impl std::fmt::Display for Literal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.negated {
            write!(f, "¬x{}", self.var)
        } else {
            write!(f, "x{}", self.var)
        }
    }
}

/// A disjunction of literals.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Clause {
    literals: Vec<Literal>,
}

impl Clause {
    /// Creates a clause, rejecting empty ones (trivially unsatisfiable) and
    /// duplicate variables (tautologies/duplicates confuse the dynamics).
    ///
    /// # Errors
    ///
    /// Returns [`MemError::Formula`] for an empty clause or repeated
    /// variable.
    pub fn new(literals: Vec<Literal>) -> Result<Self, MemError> {
        if literals.is_empty() {
            return Err(MemError::Formula {
                reason: "empty clause".into(),
            });
        }
        let mut vars: Vec<usize> = literals.iter().map(|l| l.var()).collect();
        vars.sort_unstable();
        if vars.windows(2).any(|w| w[0] == w[1]) {
            return Err(MemError::Formula {
                reason: "clause repeats a variable".into(),
            });
        }
        Ok(Clause { literals })
    }

    /// The literals.
    #[must_use]
    pub fn literals(&self) -> &[Literal] {
        &self.literals
    }

    /// Clause width.
    #[must_use]
    pub fn len(&self) -> usize {
        self.literals.len()
    }

    /// Always `false` (empty clauses are unconstructible).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.literals.is_empty()
    }

    /// Evaluates under an assignment.
    #[must_use]
    pub fn is_satisfied(&self, assignment: &Assignment) -> bool {
        self.literals
            .iter()
            .any(|l| l.eval(assignment.value(l.var())))
    }
}

impl std::fmt::Display for Clause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "(")?;
        for (i, l) in self.literals.iter().enumerate() {
            if i > 0 {
                write!(f, " ∨ ")?;
            }
            write!(f, "{l}")?;
        }
        write!(f, ")")
    }
}

/// A CNF formula: a conjunction of clauses over `n_vars` variables.
#[derive(Debug, Clone, PartialEq)]
pub struct Formula {
    n_vars: usize,
    clauses: Vec<Clause>,
}

impl Formula {
    /// Creates a formula, validating that every literal's variable is in
    /// range.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::Formula`] for out-of-range variables or
    /// `n_vars == 0`.
    pub fn new(n_vars: usize, clauses: Vec<Clause>) -> Result<Self, MemError> {
        if n_vars == 0 {
            return Err(MemError::Formula {
                reason: "formula needs at least one variable".into(),
            });
        }
        for clause in &clauses {
            for lit in clause.literals() {
                if lit.var() >= n_vars {
                    return Err(MemError::Formula {
                        reason: format!("literal {lit} out of range for {n_vars} variables"),
                    });
                }
            }
        }
        Ok(Formula { n_vars, clauses })
    }

    /// Number of variables.
    #[must_use]
    pub fn n_vars(&self) -> usize {
        self.n_vars
    }

    /// The clauses.
    #[must_use]
    pub fn clauses(&self) -> &[Clause] {
        &self.clauses
    }

    /// Number of clauses.
    #[must_use]
    pub fn len(&self) -> usize {
        self.clauses.len()
    }

    /// Whether the formula has no clauses (trivially satisfiable).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.clauses.is_empty()
    }

    /// Evaluates under an assignment.
    #[must_use]
    pub fn is_satisfied(&self, assignment: &Assignment) -> bool {
        self.clauses.iter().all(|c| c.is_satisfied(assignment))
    }

    /// Number of clauses violated by an assignment.
    #[must_use]
    pub fn count_unsatisfied(&self, assignment: &Assignment) -> usize {
        self.clauses
            .iter()
            .filter(|c| !c.is_satisfied(assignment))
            .count()
    }

    /// Indices of clauses violated by an assignment.
    #[must_use]
    pub fn unsatisfied_clauses(&self, assignment: &Assignment) -> Vec<usize> {
        self.clauses
            .iter()
            .enumerate()
            .filter(|(_, c)| !c.is_satisfied(assignment))
            .map(|(i, _)| i)
            .collect()
    }

    /// For each variable, the clause indices containing it (the adjacency
    /// structure solvers precompute).
    #[must_use]
    pub fn occurrence_lists(&self) -> Vec<Vec<usize>> {
        let mut occ = vec![Vec::new(); self.n_vars];
        for (ci, clause) in self.clauses.iter().enumerate() {
            for lit in clause.literals() {
                occ[lit.var()].push(ci);
            }
        }
        occ
    }
}

impl std::fmt::Display for Formula {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (i, c) in self.clauses.iter().enumerate() {
            if i > 0 {
                write!(f, " ∧ ")?;
            }
            write!(f, "{c}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simple_formula() -> Formula {
        // (x0 ∨ ¬x1 ∨ x2) ∧ (¬x0 ∨ x1)
        Formula::new(
            3,
            vec![
                Clause::new(vec![
                    Literal::positive(0),
                    Literal::negative(1),
                    Literal::positive(2),
                ])
                .unwrap(),
                Clause::new(vec![Literal::negative(0), Literal::positive(1)]).unwrap(),
            ],
        )
        .unwrap()
    }

    #[test]
    fn literal_roundtrip_dimacs() {
        for code in [1i64, -1, 5, -42] {
            let l = Literal::from_dimacs(code).unwrap();
            assert_eq!(l.to_dimacs(), code);
        }
        assert!(Literal::from_dimacs(0).is_err());
    }

    #[test]
    fn literal_eval_and_polarity() {
        let pos = Literal::positive(0);
        let neg = Literal::negative(0);
        assert!(pos.eval(true) && !pos.eval(false));
        assert!(neg.eval(false) && !neg.eval(true));
        assert_eq!(pos.polarity(), 1.0);
        assert_eq!(neg.polarity(), -1.0);
    }

    #[test]
    fn clause_validation() {
        assert!(Clause::new(vec![]).is_err());
        assert!(Clause::new(vec![Literal::positive(0), Literal::negative(0)]).is_err());
        assert!(Clause::new(vec![Literal::positive(0), Literal::positive(1)]).is_ok());
    }

    #[test]
    fn formula_validation() {
        assert!(Formula::new(0, vec![]).is_err());
        let c = Clause::new(vec![Literal::positive(5)]).unwrap();
        assert!(Formula::new(3, vec![c]).is_err());
    }

    #[test]
    fn satisfaction() {
        let f = simple_formula();
        let sat = Assignment::from_bools(&[true, true, false]);
        assert!(f.is_satisfied(&sat));
        assert_eq!(f.count_unsatisfied(&sat), 0);

        let unsat = Assignment::from_bools(&[true, false, false]);
        assert!(!f.is_satisfied(&unsat));
        assert_eq!(f.count_unsatisfied(&unsat), 1);
        assert_eq!(f.unsatisfied_clauses(&unsat), vec![1]);
    }

    #[test]
    fn occurrence_lists_cover_all_literals() {
        let f = simple_formula();
        let occ = f.occurrence_lists();
        assert_eq!(occ[0], vec![0, 1]);
        assert_eq!(occ[1], vec![0, 1]);
        assert_eq!(occ[2], vec![0]);
    }

    #[test]
    fn display_renders() {
        let f = simple_formula();
        let s = f.to_string();
        assert!(s.contains("¬x1"));
        assert!(s.contains("∧"));
    }

    #[test]
    fn empty_formula_trivially_sat() {
        let f = Formula::new(1, vec![]).unwrap();
        assert!(f.is_empty());
        assert!(f.is_satisfied(&Assignment::from_bools(&[false])));
    }
}

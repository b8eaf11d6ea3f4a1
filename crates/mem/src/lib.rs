//! Digital memcomputing (paper §IV).
//!
//! Digital memcomputing machines (DMMs) replace the gates of a Boolean
//! circuit with *self-organizing logic gates* (SOLGs) whose continuous,
//! point-dissipative dynamics (paper Eqs. 1–2) flow to an equilibrium that
//! encodes the solution of the original problem — "computing in and with
//! memory". This crate implements the full §IV programme:
//!
//! * [`cnf`] / [`assignment`] / [`dimacs`] — Boolean-formula
//!   infrastructure (the "problem written in Boolean form").
//! * [`generators`] — random/planted k-SAT and frustrated-loop spin-glass
//!   instance generators.
//! * [`solg`] + [`dmm`] — the SOLG clause dynamics and the one DMM
//!   integrator: voltage variables `v ∈ [−1,1]`, short/long memory
//!   variables (the paper's `x`), clamped forward-Euler integration, and
//!   solution readout by thresholding; [`dmm::DmmSolver`] is its SAT face.
//! * [`walksat`] / [`dpll`] — the "traditional algorithmic approaches"
//!   baselines (stochastic local search and a complete DPLL).
//! * [`maxsat`] — weighted MaxSAT: the same integrator with weighted
//!   clauses, keeping the best assignment visited (the paper's ref.
//!   \[54\] claim).
//! * [`ising`] — spin-glass energy, simulated annealing, and the DMM
//!   cluster-flip analysis behind the paper's dynamical-long-range-order
//!   claim (ref. \[56\]).
//! * [`qubo`] — QUBO ↔ Ising ↔ weighted-MaxSAT reductions, and the served
//!   QUBO minimizer: the best of short MaxSAT-DMM restarts.
//! * [`rbm`] + [`datasets`] — restricted Boltzmann machines with CD-k and
//!   *mode-assisted* (DMM mode-search) pre-training (refs. \[55, 57\]).
//! * [`analysis`] — trajectory diagnostics: boundedness, periodic-orbit
//!   recurrence checks (refs. \[52, 53\]), and cluster-flip statistics.
//!
//! # Example
//!
//! ```
//! use mem::generators::planted_3sat;
//! use mem::dmm::{DmmSolver, DmmParams};
//!
//! let instance = planted_3sat(20, 4.0, 42)?;
//! let solver = DmmSolver::new(DmmParams::default());
//! let outcome = solver.solve(&instance.formula, 7)?;
//! let solution = outcome.solution.expect("planted instance is satisfiable");
//! assert!(instance.formula.is_satisfied(&solution));
//! # Ok::<(), mem::MemError>(())
//! ```

// Deliberate style choices for numerical simulation code: `!(x > 0.0)`
// rejects NaN alongside non-positive values, and indexed loops mirror the
// mathematics they implement (state-vector strides, lattice walks).
#![allow(
    clippy::neg_cmp_op_on_partial_ord,
    clippy::needless_range_loop,
    clippy::manual_is_multiple_of,
    clippy::field_reassign_with_default
)]
pub mod analysis;
pub mod assignment;
pub mod cnf;
pub mod dimacs;
pub mod dmm;
pub mod dpll;
pub mod encode;
pub mod generators;
pub mod ising;
pub mod maxsat;
pub mod qubo;
pub mod rbm;
pub mod solg;
pub mod walksat;

/// Workspace-wide datasets for the RBM experiments.
pub mod datasets;

/// Crate-wide error type.
#[derive(Debug, Clone, PartialEq)]
pub enum MemError {
    /// A formula/assignment construction was invalid.
    Formula {
        /// Human-readable reason.
        reason: String,
    },
    /// DIMACS parsing failed.
    Dimacs {
        /// Line number (1-based, 0 when unknown).
        line: usize,
        /// Human-readable reason.
        reason: String,
    },
    /// A solver or generator parameter was invalid.
    Parameter {
        /// Parameter name.
        name: &'static str,
        /// Human-readable reason.
        reason: &'static str,
    },
    /// A numerical routine failed.
    Numerics(numerics::NumericsError),
}

impl std::fmt::Display for MemError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MemError::Formula { reason } => write!(f, "formula error: {reason}"),
            MemError::Dimacs { line, reason } => {
                write!(f, "dimacs error at line {line}: {reason}")
            }
            MemError::Parameter { name, reason } => {
                write!(f, "invalid parameter `{name}`: {reason}")
            }
            MemError::Numerics(e) => write!(f, "numerics error: {e}"),
        }
    }
}

impl std::error::Error for MemError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MemError::Numerics(e) => Some(e),
            _ => None,
        }
    }
}

impl From<numerics::NumericsError> for MemError {
    fn from(e: numerics::NumericsError) -> Self {
        MemError::Numerics(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display() {
        let errors = [
            MemError::Formula {
                reason: "empty clause".into(),
            },
            MemError::Dimacs {
                line: 3,
                reason: "bad literal".into(),
            },
            MemError::Parameter {
                name: "alpha",
                reason: "must be positive",
            },
        ];
        for e in errors {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<MemError>();
    }
}

//! Boolean circuits and their CNF encodings.
//!
//! §IV: "In order to solve a specific combinatorial optimization problem,
//! DMMs are then designed as follows. The problem is first written in
//! Boolean form … The corresponding Boolean circuit is not even unique, in
//! view of the freedom available in choosing different logic gates as the
//! basis of our Boolean logic."
//!
//! This module provides that front end: a [`BoolCircuit`] of AND/OR/XOR/NOT
//! gates over wires and the standard Tseitin transformation to CNF (one
//! SOLG per gate).
//!
//! # Example
//!
//! ```
//! use mem::encode::{BoolCircuit, GateKind};
//!
//! // out = (in0 AND in1) XOR in2, constrained to be true.
//! let mut circuit = BoolCircuit::new(3);
//! let and = circuit.add_gate(GateKind::And, &[0, 1])?;
//! let out = circuit.add_gate(GateKind::Xor, &[and, 2])?;
//! let formula = circuit.to_cnf(&[(out, true)])?;
//! // in = (1, 0, 0): AND = 0, XOR = 0 → constraint violated.
//! // The formula is satisfiable exactly by inputs making `out` true.
//! assert!(formula.n_vars() >= 5);
//! # Ok::<(), mem::MemError>(())
//! ```

use crate::cnf::{Clause, Formula, Literal};
use crate::MemError;

/// The gate kinds of the Boolean-circuit front end.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GateKind {
    /// Logical AND of all inputs.
    And,
    /// Logical OR of all inputs.
    Or,
    /// Exclusive OR (exactly 2 inputs).
    Xor,
    /// Negation (exactly 1 input).
    Not,
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct CircuitGate {
    kind: GateKind,
    inputs: Vec<usize>,
    output: usize,
}

/// A combinational Boolean circuit over wires.
///
/// Wires `0..n_inputs` are primary inputs; each added gate allocates a new
/// output wire. The circuit converts to CNF by the Tseitin transformation:
/// every gate contributes the clauses asserting `output ⇔ gate(inputs)` —
/// exactly the per-gate "logical proposition" an SOLG self-organizes into.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BoolCircuit {
    n_inputs: usize,
    n_wires: usize,
    gates: Vec<CircuitGate>,
}

impl BoolCircuit {
    /// Creates a circuit with `n_inputs` primary input wires.
    ///
    /// # Panics
    ///
    /// Panics when `n_inputs == 0`.
    #[must_use]
    pub fn new(n_inputs: usize) -> Self {
        assert!(n_inputs > 0, "circuit needs at least one input");
        BoolCircuit {
            n_inputs,
            n_wires: n_inputs,
            gates: Vec::new(),
        }
    }

    /// Adds a gate over existing wires; returns its output wire.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::Formula`] for out-of-range wires or an arity the
    /// gate kind does not support (NOT takes 1 input, XOR takes 2, AND/OR
    /// take ≥ 2).
    pub fn add_gate(&mut self, kind: GateKind, inputs: &[usize]) -> Result<usize, MemError> {
        for &w in inputs {
            if w >= self.n_wires {
                return Err(MemError::Formula {
                    reason: format!("wire {w} does not exist"),
                });
            }
        }
        let arity_ok = match kind {
            GateKind::Not => inputs.len() == 1,
            GateKind::Xor => inputs.len() == 2,
            GateKind::And | GateKind::Or => inputs.len() >= 2,
        };
        if !arity_ok {
            return Err(MemError::Formula {
                reason: format!("{kind:?} gate cannot take {} inputs", inputs.len()),
            });
        }
        let output = self.n_wires;
        self.n_wires += 1;
        self.gates.push(CircuitGate {
            kind,
            inputs: inputs.to_vec(),
            output,
        });
        Ok(output)
    }

    /// Evaluates the circuit on primary inputs, returning all wire values.
    ///
    /// # Panics
    ///
    /// Panics when `inputs.len() != n_inputs`.
    #[must_use]
    pub fn evaluate(&self, inputs: &[bool]) -> Vec<bool> {
        assert_eq!(inputs.len(), self.n_inputs);
        let mut wires = vec![false; self.n_wires];
        wires[..self.n_inputs].copy_from_slice(inputs);
        for gate in &self.gates {
            let vals: Vec<bool> = gate.inputs.iter().map(|&w| wires[w]).collect();
            wires[gate.output] = match gate.kind {
                GateKind::And => vals.iter().all(|&v| v),
                GateKind::Or => vals.iter().any(|&v| v),
                GateKind::Xor => vals[0] ^ vals[1],
                GateKind::Not => !vals[0],
            };
        }
        wires
    }

    /// Tseitin-transforms the circuit to CNF, with optional output
    /// constraints pinning wires to values. One variable per wire; each
    /// gate contributes its defining clauses.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::Formula`] for constraints on nonexistent wires.
    pub fn to_cnf(&self, constraints: &[(usize, bool)]) -> Result<Formula, MemError> {
        let mut clauses: Vec<Clause> = Vec::new();
        let pos = Literal::positive;
        let neg = Literal::negative;
        for gate in &self.gates {
            let o = gate.output;
            match gate.kind {
                GateKind::And => {
                    // o → each input; all inputs → o.
                    for &i in &gate.inputs {
                        clauses.push(Clause::new(vec![neg(o), pos(i)])?);
                    }
                    let mut lits: Vec<Literal> = gate.inputs.iter().map(|&i| neg(i)).collect();
                    lits.push(pos(o));
                    clauses.push(Clause::new(lits)?);
                }
                GateKind::Or => {
                    // each input → o; o → some input.
                    for &i in &gate.inputs {
                        clauses.push(Clause::new(vec![neg(i), pos(o)])?);
                    }
                    let mut lits: Vec<Literal> = gate.inputs.iter().map(|&i| pos(i)).collect();
                    lits.push(neg(o));
                    clauses.push(Clause::new(lits)?);
                }
                GateKind::Xor => {
                    let (a, b) = (gate.inputs[0], gate.inputs[1]);
                    clauses.push(Clause::new(vec![neg(o), pos(a), pos(b)])?);
                    clauses.push(Clause::new(vec![neg(o), neg(a), neg(b)])?);
                    clauses.push(Clause::new(vec![pos(o), neg(a), pos(b)])?);
                    clauses.push(Clause::new(vec![pos(o), pos(a), neg(b)])?);
                }
                GateKind::Not => {
                    let a = gate.inputs[0];
                    clauses.push(Clause::new(vec![neg(o), neg(a)])?);
                    clauses.push(Clause::new(vec![pos(o), pos(a)])?);
                }
            }
        }
        for &(wire, value) in constraints {
            if wire >= self.n_wires {
                return Err(MemError::Formula {
                    reason: format!("constraint on nonexistent wire {wire}"),
                });
            }
            clauses.push(Clause::new(vec![if value {
                pos(wire)
            } else {
                neg(wire)
            }])?);
        }
        Formula::new(self.n_wires, clauses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assignment::Assignment;
    use crate::dpll::Dpll;

    fn xor_and_circuit() -> (BoolCircuit, usize) {
        // out = (in0 AND in1) XOR in2
        let mut c = BoolCircuit::new(3);
        let and = c.add_gate(GateKind::And, &[0, 1]).unwrap();
        let out = c.add_gate(GateKind::Xor, &[and, 2]).unwrap();
        (c, out)
    }

    #[test]
    fn evaluation_matches_semantics() {
        let (c, out) = xor_and_circuit();
        for bits in 0..8u32 {
            let inputs: Vec<bool> = (0..3).map(|i| bits >> i & 1 == 1).collect();
            let wires = c.evaluate(&inputs);
            let expected = (inputs[0] && inputs[1]) ^ inputs[2];
            assert_eq!(wires[out], expected, "inputs {inputs:?}");
        }
    }

    #[test]
    fn tseitin_cnf_agrees_with_evaluation_on_all_inputs() {
        let (c, out) = xor_and_circuit();
        let formula = c.to_cnf(&[]).unwrap();
        for bits in 0..8u32 {
            let inputs: Vec<bool> = (0..3).map(|i| bits >> i & 1 == 1).collect();
            let wires = c.evaluate(&inputs);
            // The wire valuation must satisfy the Tseitin clauses.
            let assignment = Assignment::from_bools(&wires);
            assert!(formula.is_satisfied(&assignment), "inputs {inputs:?}");
            // Flipping the output wire must violate them.
            let mut bad = wires.clone();
            bad[out] = !bad[out];
            assert!(!formula.is_satisfied(&Assignment::from_bools(&bad)));
        }
    }

    #[test]
    fn constrained_cnf_solutions_respect_circuit() {
        let (c, out) = xor_and_circuit();
        let formula = c.to_cnf(&[(out, true)]).unwrap();
        let result = Dpll::new(100_000).solve(&formula);
        let solution = result.solution.expect("constraint is achievable");
        // Re-evaluate the circuit on the solved inputs.
        let inputs: Vec<bool> = (0..3).map(|i| solution.value(i)).collect();
        let wires = c.evaluate(&inputs);
        assert!(
            wires[out],
            "solver produced inputs that violate the constraint"
        );
    }

    #[test]
    fn unsatisfiable_constraint_detected() {
        // out = in0 AND (NOT in0) can never be true.
        let mut c = BoolCircuit::new(1);
        let not = c.add_gate(GateKind::Not, &[0]).unwrap();
        let and = c.add_gate(GateKind::And, &[0, not]).unwrap();
        let formula = c.to_cnf(&[(and, true)]).unwrap();
        assert!(Dpll::new(100_000).solve(&formula).proved_unsat());
    }

    #[test]
    fn gate_arity_validated() {
        let mut c = BoolCircuit::new(2);
        assert!(c.add_gate(GateKind::Not, &[0, 1]).is_err());
        assert!(c.add_gate(GateKind::Xor, &[0]).is_err());
        assert!(c.add_gate(GateKind::And, &[0]).is_err());
        assert!(c.add_gate(GateKind::And, &[0, 5]).is_err());
    }
}

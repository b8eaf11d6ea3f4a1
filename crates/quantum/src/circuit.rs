//! Circuit IR and builder.
//!
//! [`Circuit`] is an ordered gate list over a fixed-width register, with a
//! fluent builder API and inversion.
//! It is the unit the compiler passes ([`crate::mapping`]) and the
//! micro-architecture ([`crate::microarch`]) operate on.
//!
//! # Example
//!
//! ```
//! use quantum::circuit::Circuit;
//!
//! let mut c = Circuit::new(3)?;
//! c.h(0)?.cx(0, 1)?.cx(1, 2)?;
//! assert_eq!(c.len(), 3);
//! # Ok::<(), quantum::QuantumError>(())
//! ```

use crate::gate::Gate;
use crate::state::StateVector;
use crate::{QuantumError, MAX_QUBITS};

/// An ordered list of gates over an `n`-qubit register.
#[derive(Debug, Clone, PartialEq)]
pub struct Circuit {
    n_qubits: usize,
    gates: Vec<Gate>,
}

impl Circuit {
    /// Creates an empty circuit.
    ///
    /// # Errors
    ///
    /// Returns [`QuantumError::BadRegisterWidth`] outside `1..=MAX_QUBITS`.
    pub fn new(n_qubits: usize) -> Result<Self, QuantumError> {
        if n_qubits == 0 || n_qubits > MAX_QUBITS {
            return Err(QuantumError::BadRegisterWidth { n_qubits });
        }
        Ok(Circuit {
            n_qubits,
            gates: Vec::new(),
        })
    }

    /// Register width.
    #[must_use]
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    /// Gate count.
    #[must_use]
    pub fn len(&self) -> usize {
        self.gates.len()
    }

    /// Whether the circuit has no gates.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.gates.is_empty()
    }

    /// The gate list.
    #[must_use]
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// Appends a validated gate.
    ///
    /// # Errors
    ///
    /// * [`QuantumError::QubitOutOfRange`] for an operand beyond the width.
    /// * [`QuantumError::DuplicateQubits`] when operands coincide.
    pub fn push(&mut self, gate: Gate) -> Result<&mut Self, QuantumError> {
        let qubits = gate.qubits();
        for &q in &qubits {
            if q >= self.n_qubits {
                return Err(QuantumError::QubitOutOfRange {
                    qubit: q,
                    n_qubits: self.n_qubits,
                });
            }
        }
        for i in 0..qubits.len() {
            for j in i + 1..qubits.len() {
                if qubits[i] == qubits[j] {
                    return Err(QuantumError::DuplicateQubits);
                }
            }
        }
        self.gates.push(gate);
        Ok(self)
    }

    /// Appends Hadamard. See [`Circuit::push`] for errors.
    ///
    /// # Errors
    ///
    /// See [`Circuit::push`].
    pub fn h(&mut self, q: usize) -> Result<&mut Self, QuantumError> {
        self.push(Gate::H(q))
    }

    /// Appends a phase gate.
    ///
    /// # Errors
    ///
    /// See [`Circuit::push`].
    pub fn phase(&mut self, q: usize, theta: f64) -> Result<&mut Self, QuantumError> {
        self.push(Gate::Phase(q, theta))
    }

    /// Appends CNOT.
    ///
    /// # Errors
    ///
    /// See [`Circuit::push`].
    pub fn cx(&mut self, control: usize, target: usize) -> Result<&mut Self, QuantumError> {
        self.push(Gate::CX(control, target))
    }

    /// Appends controlled phase.
    ///
    /// # Errors
    ///
    /// See [`Circuit::push`].
    pub fn cphase(
        &mut self,
        control: usize,
        target: usize,
        theta: f64,
    ) -> Result<&mut Self, QuantumError> {
        self.push(Gate::CPhase(control, target, theta))
    }

    /// Appends SWAP.
    ///
    /// # Errors
    ///
    /// See [`Circuit::push`].
    pub fn swap(&mut self, a: usize, b: usize) -> Result<&mut Self, QuantumError> {
        self.push(Gate::Swap(a, b))
    }

    /// The inverse circuit (reversed order, inverted gates).
    #[must_use]
    pub fn inverse(&self) -> Circuit {
        Circuit {
            n_qubits: self.n_qubits,
            gates: self.gates.iter().rev().map(Gate::inverse).collect(),
        }
    }

    /// Runs the circuit on an input state, returning the output state.
    ///
    /// # Errors
    ///
    /// * [`QuantumError::BadRegisterWidth`] when the state width mismatches.
    /// * Propagates gate-application errors.
    pub fn run(&self, mut state: StateVector) -> Result<StateVector, QuantumError> {
        if state.n_qubits() != self.n_qubits {
            return Err(QuantumError::BadRegisterWidth {
                n_qubits: state.n_qubits(),
            });
        }
        for gate in &self.gates {
            gate.apply(&mut state)?;
        }
        Ok(state)
    }
}

impl std::fmt::Display for Circuit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "qubits {}", self.n_qubits)?;
        for g in &self.gates {
            writeln!(f, "{g}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_validates() {
        let mut c = Circuit::new(2).unwrap();
        assert!(c.h(0).is_ok());
        assert!(matches!(
            c.h(5),
            Err(QuantumError::QubitOutOfRange { qubit: 5, .. })
        ));
        assert!(matches!(c.cx(1, 1), Err(QuantumError::DuplicateQubits)));
    }

    #[test]
    fn width_zero_rejected() {
        assert!(Circuit::new(0).is_err());
    }

    #[test]
    fn ghz_state() {
        let mut c = Circuit::new(3).unwrap();
        c.h(0).unwrap().cx(0, 1).unwrap().cx(1, 2).unwrap();
        let out = c.run(StateVector::zero(3)).unwrap();
        assert!((out.probability(0b000).unwrap() - 0.5).abs() < 1e-12);
        assert!((out.probability(0b111).unwrap() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn run_rejects_wrong_width() {
        let c = Circuit::new(2).unwrap();
        assert!(c.run(StateVector::zero(3)).is_err());
    }

    #[test]
    fn inverse_undoes() {
        let mut c = Circuit::new(3).unwrap();
        c.h(0)
            .unwrap()
            .cphase(0, 1, 0.7)
            .unwrap()
            .cx(1, 2)
            .unwrap()
            .phase(2, -0.3)
            .unwrap();
        let forward = c.run(StateVector::zero(3)).unwrap();
        let back = c.inverse().run(forward).unwrap();
        assert!((back.probability(0).unwrap() - 1.0).abs() < 1e-10);
    }

    #[test]
    fn display_lists_gates() {
        let mut c = Circuit::new(2).unwrap();
        c.h(0).unwrap().cx(0, 1).unwrap();
        let s = c.to_string();
        assert!(s.contains("qubits 2"));
        assert!(s.contains("h q0"));
        assert!(s.contains("cnot q0, q1"));
    }

    #[test]
    fn empty_circuit_properties() {
        let c = Circuit::new(2).unwrap();
        assert!(c.is_empty());
        let out = c.run(StateVector::zero(2)).unwrap();
        assert_eq!(out.probability(0).unwrap(), 1.0);
    }
}

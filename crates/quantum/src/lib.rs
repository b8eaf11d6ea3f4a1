//! The quantum-accelerator stack (paper §II).
//!
//! The paper frames the quantum computer as one more accelerator in a
//! heterogeneous system (Fig. 1) and enumerates the layers any quantum
//! accelerator must provide (Fig. 2): application → algorithm → compiler /
//! runtime → QISA → micro-architecture → chip. This crate implements that
//! stack on a classical substrate — a full state-vector simulator in place
//! of the cryogenic chip — so every layer is executable:
//!
//! * [`state`] / [`gate`] / [`circuit`] — the "chip": exact state-vector
//!   simulation of the standard gate set.
//! * [`qft`], [`numtheory`], [`shor`], [`grover`],
//!   [`swap_test`], [`dna`] — the algorithm layer, including both killer
//!   apps the paper names: Shor factorization (cryptography) and DNA
//!   similarity on superposed data (genomics).
//! * [`isa`] — a textual quantum ISA with assembler/disassembler.
//! * [`mapping`] — the compiler's qubit-placement and SWAP-routing pass for
//!   restricted coupling topologies.
//! * [`microarch`] — the micro-architecture: decode, ASAP gate scheduling
//!   with realistic per-gate latencies, and execution on the simulator.
//!
//! # Example
//!
//! ```
//! use quantum::circuit::Circuit;
//! use quantum::state::StateVector;
//!
//! // A Bell pair.
//! let mut circuit = Circuit::new(2)?;
//! circuit.h(0)?.cx(0, 1)?;
//! let state = circuit.run(StateVector::zero(2))?;
//! let p00 = state.probability(0b00)?;
//! let p11 = state.probability(0b11)?;
//! assert!((p00 - 0.5).abs() < 1e-12);
//! assert!((p11 - 0.5).abs() < 1e-12);
//! # Ok::<(), quantum::QuantumError>(())
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
pub mod circuit;
pub mod dna;
pub mod gate;
pub mod grover;
pub mod isa;
pub mod mapping;
pub mod microarch;
pub mod numtheory;
pub mod qft;
pub mod shor;
pub mod state;
pub mod swap_test;

/// Crate-wide error type.
#[derive(Debug, Clone, PartialEq)]
pub enum QuantumError {
    /// A qubit index exceeded the register width.
    QubitOutOfRange {
        /// Offending index.
        qubit: usize,
        /// Register width.
        n_qubits: usize,
    },
    /// A basis-state index exceeded the state dimension.
    BasisOutOfRange {
        /// Offending basis index.
        basis: usize,
        /// State dimension.
        dim: usize,
    },
    /// Two operands of a multi-qubit gate coincided.
    DuplicateQubits,
    /// A register width was invalid (0 or too large to simulate).
    BadRegisterWidth {
        /// Requested width.
        n_qubits: usize,
    },
    /// An amplitude vector was not normalizable or had a non-power-of-two
    /// length.
    BadAmplitudes {
        /// Human-readable reason.
        reason: &'static str,
    },
    /// QISA assembly failed.
    Assembly {
        /// Line number (1-based).
        line: usize,
        /// Human-readable reason.
        reason: String,
    },
    /// An algorithm-level precondition failed (e.g. Shor on even N).
    Algorithm {
        /// Human-readable reason.
        reason: String,
    },
    /// A circuit uses a two-qubit gate on an uncoupled qubit pair.
    Uncoupled {
        /// First physical qubit.
        a: usize,
        /// Second physical qubit.
        b: usize,
    },
}

impl std::fmt::Display for QuantumError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QuantumError::QubitOutOfRange { qubit, n_qubits } => {
                write!(
                    f,
                    "qubit {qubit} out of range for {n_qubits}-qubit register"
                )
            }
            QuantumError::BasisOutOfRange { basis, dim } => {
                write!(f, "basis index {basis} out of range for dimension {dim}")
            }
            QuantumError::DuplicateQubits => write!(f, "gate operands must be distinct"),
            QuantumError::BadRegisterWidth { n_qubits } => {
                write!(f, "register width {n_qubits} unsupported (1..=24)")
            }
            QuantumError::BadAmplitudes { reason } => {
                write!(f, "bad amplitude vector: {reason}")
            }
            QuantumError::Assembly { line, reason } => {
                write!(f, "assembly error at line {line}: {reason}")
            }
            QuantumError::Algorithm { reason } => write!(f, "algorithm error: {reason}"),
            QuantumError::Uncoupled { a, b } => {
                write!(f, "qubits {a} and {b} are not coupled on this topology")
            }
        }
    }
}

impl std::error::Error for QuantumError {}

/// Maximum register width the simulator accepts (2²⁴ amplitudes ≈ 256 MiB).
pub const MAX_QUBITS: usize = 24;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display() {
        let errors = [
            QuantumError::QubitOutOfRange {
                qubit: 5,
                n_qubits: 3,
            },
            QuantumError::DuplicateQubits,
            QuantumError::BadRegisterWidth { n_qubits: 0 },
            QuantumError::Algorithm {
                reason: "even modulus".into(),
            },
        ];
        for e in errors {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<QuantumError>();
    }
}

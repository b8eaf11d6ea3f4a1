//! Quantum Fourier transform.
//!
//! The standard QFT circuit: Hadamard + controlled-phase ladder + final
//! qubit reversal. Convention: the QFT maps `|x⟩ → (1/√N) Σ_y e^{2πi·xy/N}
//! |y⟩` with qubit 0 as the least-significant bit.
//!
//! # Example
//!
//! ```
//! use quantum::qft;
//! use quantum::state::StateVector;
//!
//! // QFT of |0⟩ is the uniform superposition.
//! let circuit = qft::qft_circuit(3)?;
//! let out = circuit.run(StateVector::zero(3))?;
//! for idx in 0..8 {
//!     assert!((out.probability(idx)? - 0.125).abs() < 1e-12);
//! }
//! # Ok::<(), quantum::QuantumError>(())
//! ```

use crate::circuit::Circuit;
use crate::QuantumError;
use std::f64::consts::PI;

/// Builds the `n`-qubit QFT circuit.
///
/// # Errors
///
/// Returns [`QuantumError::BadRegisterWidth`] for an invalid width.
pub fn qft_circuit(n: usize) -> Result<Circuit, QuantumError> {
    let mut c = Circuit::new(n)?;
    // Process from the most-significant qubit down.
    for i in (0..n).rev() {
        c.h(i)?;
        for j in (0..i).rev() {
            // Controlled phase of angle π / 2^(i-j) from qubit j onto i.
            let theta = PI / f64::from(1u32 << (i - j));
            c.cphase(j, i, theta)?;
        }
    }
    // Reverse qubit order.
    for q in 0..n / 2 {
        c.swap(q, n - 1 - q)?;
    }
    Ok(c)
}

/// Builds the inverse QFT circuit.
///
/// # Errors
///
/// Returns [`QuantumError::BadRegisterWidth`] for an invalid width.
pub(crate) fn inverse_qft_circuit(n: usize) -> Result<Circuit, QuantumError> {
    Ok(qft_circuit(n)?.inverse())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::Gate;
    use crate::state::naive::basis;
    use crate::state::StateVector;
    use numerics::Complex;

    #[test]
    fn qft_matches_dft_on_basis_states() {
        let n = 4;
        let dim = 1usize << n;
        for x in 0..dim {
            let circuit = qft_circuit(n).unwrap();
            let out = circuit.run(basis(n, x)).unwrap();
            for y in 0..dim {
                let expected =
                    Complex::cis(2.0 * std::f64::consts::PI * (x * y) as f64 / dim as f64)
                        .scale(1.0 / (dim as f64).sqrt());
                let actual = out.amplitude(y).unwrap();
                assert!(
                    (actual - expected).norm() < 1e-10,
                    "x={x} y={y}: {actual} vs {expected}"
                );
            }
        }
    }

    #[test]
    fn qft_roundtrip() {
        let n = 5;
        let mut prep = Circuit::new(n).unwrap();
        prep.h(0)
            .unwrap()
            .cx(0, 2)
            .unwrap()
            .push(Gate::Phase(1, 0.4))
            .unwrap();
        let state = prep.run(StateVector::zero(n)).unwrap();
        let fwd = qft_circuit(n).unwrap();
        let inv = inverse_qft_circuit(n).unwrap();
        let through = inv.run(fwd.run(state.clone()).unwrap()).unwrap();
        let fidelity = state.overlap(&through).unwrap().norm();
        assert!((fidelity - 1.0).abs() < 1e-10);
    }

    #[test]
    fn qft_preserves_norm() {
        let circuit = qft_circuit(6).unwrap();
        let out = circuit.run(basis(6, 13)).unwrap();
        assert!((out.norm() - 1.0).abs() < 1e-10);
    }

    #[test]
    fn qft_gate_count_quadratic() {
        let c = qft_circuit(6).unwrap();
        // n Hadamards + n(n-1)/2 controlled phases + n/2 swaps.
        assert_eq!(c.gates().len(), 6 + 15 + 3);
    }

    #[test]
    fn single_qubit_qft_is_hadamard() {
        let c = qft_circuit(1).unwrap();
        let out = c.run(StateVector::zero(1)).unwrap();
        assert!((out.probability(0).unwrap() - 0.5).abs() < 1e-12);
        assert!((out.probability(1).unwrap() - 0.5).abs() < 1e-12);
    }
}

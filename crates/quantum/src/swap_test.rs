//! The swap test: quantum state-overlap estimation.
//!
//! Given registers prepared in `|a⟩` and `|b⟩` plus one ancilla, the swap
//! test measures the ancilla as `|0⟩` with probability
//! `(1 + |⟨a|b⟩|²)/2`. Repeating the test estimates the squared overlap —
//! the similarity primitive behind the paper's DNA-comparison discussion
//! ([`crate::dna`]).
//!
//! A device re-prepares both registers and re-runs the circuit for every
//! shot. The simulator holds the amplitudes, and the state just before the
//! ancilla measurement is the same for every shot, so
//! [`estimate_overlap_sq`] simulates the circuit once and draws the ancilla
//! `shots` times from its `|1⟩` probability — the same probability bits and
//! the same RNG draws, in the same order, as `shots` simulations that each
//! end in an ancilla measurement. Cost models keep charging `shots` device runs
//! (DIVERGENCES.md).
//!
//! # Example
//!
//! ```
//! use quantum::state::StateVector;
//! use quantum::swap_test;
//! use numerics::rng::rng_from_seed;
//!
//! let a = StateVector::basis(2, 1)?;
//! let b = StateVector::basis(2, 1)?;
//! let mut rng = rng_from_seed(5);
//! let est = swap_test::estimate_overlap_sq(&a, &b, 500, &mut rng)?;
//! assert!(est > 0.9, "identical states: {est}");
//! # Ok::<(), quantum::QuantumError>(())
//! ```

use crate::gate::{matrices, Gate};
use crate::state::StateVector;
use crate::QuantumError;
use numerics::rng::Rng;

/// Simulates the swap-test circuit up to (not including) the ancilla
/// measurement and returns the probability that the ancilla reads `|1⟩`.
///
/// Register layout: ancilla is the highest qubit; `a` occupies the low
/// qubits, `b` the middle qubits.
fn ancilla_prob_one(a: &StateVector, b: &StateVector) -> Result<f64, QuantumError> {
    if a.n_qubits() != b.n_qubits() {
        return Err(QuantumError::BadRegisterWidth {
            n_qubits: b.n_qubits(),
        });
    }
    let m = a.n_qubits();
    // ancilla ⊗ b ⊗ a : a on qubits 0..m, b on m..2m, ancilla at 2m.
    let ancilla = StateVector::try_zero(1)?;
    let mut state = ancilla.tensor(b)?.tensor(a)?;
    let anc = 2 * m;
    Gate::H(anc).apply(&mut state)?;
    // Controlled swap of register pairs, qubit by qubit (Fredkin gates built
    // from the doubly-controlled X identity: CSWAP = CX(b,a)·CCX(anc,a,b)·CX(b,a)).
    for q in 0..m {
        let qa = q;
        let qb = m + q;
        state.apply_controlled(qb, qa, &matrices::PAULI_X)?;
        state.apply_controlled2(anc, qa, qb, &matrices::PAULI_X)?;
        state.apply_controlled(qb, qa, &matrices::PAULI_X)?;
    }
    Gate::H(anc).apply(&mut state)?;
    state.prob_one(anc)
}

/// Estimates `|⟨a|b⟩|²` from `shots` swap tests:
/// `est = max(0, 2·P(ancilla = 0) − 1)`.
///
/// # Errors
///
/// * [`QuantumError::BadRegisterWidth`] when the registers differ in width
///   or the combined register exceeds the simulator limit.
/// * [`QuantumError::Algorithm`] when `shots == 0`.
pub fn estimate_overlap_sq<R: Rng>(
    a: &StateVector,
    b: &StateVector,
    shots: usize,
    rng: &mut R,
) -> Result<f64, QuantumError> {
    if shots == 0 {
        return Err(QuantumError::Algorithm {
            reason: "swap test needs at least one shot".into(),
        });
    }
    let p1 = ancilla_prob_one(a, b)?;
    let zeros = (0..shots)
        .filter(|_| {
            let one = rng.gen::<f64>() < p1;
            !one
        })
        .count();
    let p0 = zeros as f64 / shots as f64;
    Ok((2.0 * p0 - 1.0).max(0.0))
}

/// The exact squared overlap `|⟨a|b⟩|²` (the simulator has the amplitudes,
/// so the sampled estimate can be validated against truth).
///
/// # Errors
///
/// Returns [`QuantumError::BadRegisterWidth`] on width mismatch.
pub fn exact_overlap_sq(a: &StateVector, b: &StateVector) -> Result<f64, QuantumError> {
    Ok(a.overlap(b)?.norm_sqr())
}

#[cfg(test)]
mod tests {
    use super::*;
    use numerics::rng::rng_from_seed;
    use numerics::Complex;

    #[test]
    fn identical_states_full_overlap() {
        let mut rng = rng_from_seed(1);
        let a = StateVector::basis(2, 2).unwrap();
        let est = estimate_overlap_sq(&a, &a.clone(), 400, &mut rng).unwrap();
        assert!(est > 0.9, "est {est}");
        assert!((exact_overlap_sq(&a, &a).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn orthogonal_states_zero_overlap() {
        let mut rng = rng_from_seed(2);
        let a = StateVector::basis(2, 0).unwrap();
        let b = StateVector::basis(2, 3).unwrap();
        let est = estimate_overlap_sq(&a, &b, 400, &mut rng).unwrap();
        assert!(est < 0.15, "est {est}");
        assert!(exact_overlap_sq(&a, &b).unwrap() < 1e-12);
    }

    #[test]
    fn partial_overlap_tracks_truth() {
        let mut rng = rng_from_seed(3);
        // |a⟩ = |0⟩, |b⟩ = cos θ |0⟩ + sin θ |1⟩ with overlap² = cos²θ.
        let theta: f64 = 0.7;
        let a = StateVector::basis(1, 0).unwrap();
        let b = StateVector::from_amplitudes(vec![
            Complex::new(theta.cos(), 0.0),
            Complex::new(theta.sin(), 0.0),
        ])
        .unwrap();
        let truth = exact_overlap_sq(&a, &b).unwrap();
        let est = estimate_overlap_sq(&a, &b, 3000, &mut rng).unwrap();
        assert!((est - truth).abs() < 0.06, "est {est} vs truth {truth}");
    }

    /// One shot the way a device runs it (and this module used to):
    /// prepare, run the circuit, measure the ancilla, throw the state away.
    fn one_shot_per_simulation<R: Rng>(a: &StateVector, b: &StateVector, rng: &mut R) -> bool {
        let m = a.n_qubits();
        let mut state = StateVector::zero(1).tensor(b).unwrap().tensor(a).unwrap();
        let anc = 2 * m;
        Gate::H(anc).apply(&mut state).unwrap();
        for q in 0..m {
            Gate::CX(m + q, q).apply(&mut state).unwrap();
            Gate::Toffoli(anc, q, m + q).apply(&mut state).unwrap();
            Gate::CX(m + q, q).apply(&mut state).unwrap();
        }
        Gate::H(anc).apply(&mut state).unwrap();
        crate::state::naive::measure_qubit(&mut state, anc, rng)
    }

    #[test]
    fn one_simulation_per_estimate_equals_one_per_shot() {
        for (seed, k) in [(1u64, 1usize), (2, 2), (3, 3)] {
            let mut prep = rng_from_seed(100 + seed);
            let mut random_state = || {
                StateVector::from_amplitudes(
                    (0..1usize << (2 * k))
                        .map(|_| Complex::new(prep.gen_range(0.0..1.0), 0.0))
                        .collect(),
                )
                .unwrap()
            };
            let (a, b) = (random_state(), random_state());
            let shots = 500;
            let (mut fast_rng, mut slow_rng) = (rng_from_seed(seed), rng_from_seed(seed));
            let estimate = estimate_overlap_sq(&a, &b, shots, &mut fast_rng).unwrap();
            let zeros = (0..shots)
                .filter(|_| !one_shot_per_simulation(&a, &b, &mut slow_rng))
                .count();
            let expected = (2.0 * (zeros as f64 / shots as f64) - 1.0).max(0.0);
            assert_eq!(estimate.to_bits(), expected.to_bits(), "k = {k}");
            // Same number of draws: the streams are still in step.
            assert_eq!(fast_rng.gen::<u64>(), slow_rng.gen::<u64>());
        }
    }

    #[test]
    fn width_mismatch_rejected() {
        let mut rng = rng_from_seed(4);
        let a = StateVector::zero(1);
        let b = StateVector::zero(2);
        assert!(estimate_overlap_sq(&a, &b, 1, &mut rng).is_err());
    }

    #[test]
    fn zero_shots_rejected() {
        let mut rng = rng_from_seed(4);
        let a = StateVector::zero(1);
        assert!(estimate_overlap_sq(&a, &a.clone(), 0, &mut rng).is_err());
    }

    #[test]
    fn estimate_clamped_nonnegative() {
        // Orthogonal states can yield p0 slightly below 1/2 by sampling
        // noise; the estimator must clamp at zero.
        let mut rng = rng_from_seed(6);
        let a = StateVector::basis(1, 0).unwrap();
        let b = StateVector::basis(1, 1).unwrap();
        for _ in 0..5 {
            let est = estimate_overlap_sq(&a, &b, 21, &mut rng).unwrap();
            assert!(est >= 0.0);
        }
    }
}

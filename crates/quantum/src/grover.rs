//! Grover search.
//!
//! The quadratic-speedup workhorse for unstructured search: `~π/4·√(N/M)`
//! oracle calls to find one of `M` marked items among `N`, versus `N/M`
//! expected classical probes. Used in the benches as the "large data set"
//! demonstration of §II-C.
//!
//! The oracle is a basis-state phase flip applied directly by the
//! simulator; the diffusion operator is built from elementary gates.
//!
//! # Example
//!
//! ```
//! use quantum::grover;
//! use numerics::rng::rng_from_seed;
//!
//! let mut rng = rng_from_seed(1);
//! let run = grover::search(6, &[37], &mut rng)?;
//! assert_eq!(run.found, 37);
//! assert!(run.success_probability > 0.9);
//! # Ok::<(), quantum::QuantumError>(())
//! ```

use crate::gate::Gate;
use crate::state::StateVector;
use crate::QuantumError;
use numerics::rng::Rng;
use numerics::Complex;

/// Result of a Grover run.
#[derive(Debug, Clone, PartialEq)]
pub struct GroverRun {
    /// The measured item.
    pub found: usize,
    /// Whether the measured item was marked.
    pub hit: bool,
    /// Number of Grover iterations (oracle calls) applied.
    pub iterations: usize,
    /// Probability mass on marked states just before measurement.
    pub success_probability: f64,
}

/// The optimal iteration count `⌊π/4·√(N/M)⌋` (at least 1).
#[must_use]
pub fn optimal_iterations(n_qubits: usize, n_marked: usize) -> usize {
    let n = (n_qubits as f64).exp2();
    let m = n_marked.max(1) as f64;
    let iters = (std::f64::consts::FRAC_PI_4 * (n / m).sqrt()).floor() as usize;
    iters.max(1)
}

/// The marked items without repeats, first occurrence kept. The oracle
/// flips a marked state's sign once; an item listed twice would be flipped
/// back, and counted twice by [`optimal_iterations`].
fn distinct(marked: &[usize]) -> Vec<usize> {
    let mut items = Vec::with_capacity(marked.len());
    for &m in marked {
        if !items.contains(&m) {
            items.push(m);
        }
    }
    items
}

/// Applies the phase oracle: flips the sign of every marked basis state,
/// then renormalizes (the arithmetic of [`StateVector::from_amplitudes`]:
/// `Σ|a|²` in index order, `1/√`, scale).
fn apply_oracle(state: &mut StateVector, marked: &[usize]) -> Result<(), QuantumError> {
    let dim = state.dim();
    if let Some(&m) = marked.iter().find(|&&m| m >= dim) {
        return Err(QuantumError::BasisOutOfRange { basis: m, dim });
    }
    let amps = state.amps_mut();
    for &m in marked {
        amps[m] = -amps[m];
    }
    state.normalize();
    Ok(())
}

/// Applies the diffusion operator `2|s⟩⟨s| − I` via H⊗ⁿ · (phase flip on
/// everything but |0…0⟩) · H⊗ⁿ.
fn apply_diffusion(state: &mut StateVector) -> Result<(), QuantumError> {
    let n = state.n_qubits();
    for q in 0..n {
        Gate::H(q).apply(state)?;
    }
    for a in &mut state.amps_mut()[1..] {
        *a = -*a;
    }
    state.normalize();
    for q in 0..n {
        Gate::H(q).apply(state)?;
    }
    Ok(())
}

/// Runs Grover search with the optimal iteration count and measures.
/// Repeated marked items count once.
///
/// # Errors
///
/// * [`QuantumError::Algorithm`] when `marked` is empty.
/// * [`QuantumError::BasisOutOfRange`] for marked items beyond `2^n`.
pub fn search<R: Rng>(
    n_qubits: usize,
    marked: &[usize],
    rng: &mut R,
) -> Result<GroverRun, QuantumError> {
    let marked = distinct(marked);
    run(
        n_qubits,
        &marked,
        optimal_iterations(n_qubits, marked.len()),
        rng,
    )
}

/// Runs Grover search with an explicit iteration count. Repeated marked
/// items count once.
///
/// # Errors
///
/// Same conditions as [`search`].
pub fn search_with_iterations<R: Rng>(
    n_qubits: usize,
    marked: &[usize],
    iterations: usize,
    rng: &mut R,
) -> Result<GroverRun, QuantumError> {
    run(n_qubits, &distinct(marked), iterations, rng)
}

/// The search proper, over distinct marked items.
fn run<R: Rng>(
    n_qubits: usize,
    marked: &[usize],
    iterations: usize,
    rng: &mut R,
) -> Result<GroverRun, QuantumError> {
    if marked.is_empty() {
        return Err(QuantumError::Algorithm {
            reason: "grover search needs at least one marked item".into(),
        });
    }
    let mut state = StateVector::try_zero(n_qubits)?;
    for q in 0..n_qubits {
        Gate::H(q).apply(&mut state)?;
    }
    for _ in 0..iterations {
        apply_oracle(&mut state, marked)?;
        apply_diffusion(&mut state)?;
    }
    let success_probability: f64 = marked
        .iter()
        .map(|&m| state.probability(m).unwrap_or(0.0))
        .sum();
    let found = state.measure_all(rng);
    Ok(GroverRun {
        found,
        hit: marked.contains(&found),
        iterations,
        success_probability,
    })
}

/// Expected classical probe count to find one of `n_marked` items in a
/// space of `2^n_qubits` by uniform random probing without replacement.
#[must_use]
pub fn classical_expected_probes(n_qubits: usize, n_marked: usize) -> f64 {
    let n = (n_qubits as f64).exp2();
    let m = n_marked.max(1) as f64;
    (n + 1.0) / (m + 1.0)
}

/// Builds the uniform superposition amplitude for reference in tests.
#[doc(hidden)]
#[must_use]
pub fn uniform_amplitude(n_qubits: usize) -> Complex {
    Complex::new(1.0 / ((1usize << n_qubits) as f64).sqrt(), 0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use numerics::rng::rng_from_seed;

    #[test]
    fn finds_single_marked_item() {
        let mut rng = rng_from_seed(1);
        let run = search(7, &[100], &mut rng).unwrap();
        assert!(run.success_probability > 0.9, "{run:?}");
        assert!(run.hit);
    }

    #[test]
    fn finds_one_of_many() {
        let mut rng = rng_from_seed(2);
        let marked = [3usize, 17, 42, 63];
        let run = search(6, &marked, &mut rng).unwrap();
        assert!(run.success_probability > 0.85, "{run:?}");
    }

    #[test]
    fn iteration_count_scales_as_sqrt() {
        let i6 = optimal_iterations(6, 1);
        let i10 = optimal_iterations(10, 1);
        // √(2^10 / 2^6) = 4 → roughly 4× as many iterations.
        let ratio = i10 as f64 / i6 as f64;
        assert!((3.0..5.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn too_many_iterations_overshoot() {
        let mut rng = rng_from_seed(3);
        let optimal = optimal_iterations(6, 1);
        let good = search_with_iterations(6, &[5], optimal, &mut rng).unwrap();
        let over = search_with_iterations(6, &[5], optimal * 2, &mut rng).unwrap();
        assert!(
            over.success_probability < good.success_probability,
            "overshoot not visible: {} vs {}",
            over.success_probability,
            good.success_probability
        );
    }

    #[test]
    fn repeated_marked_items_count_once() {
        // Flipping a sign once per list entry would flip `37` back: the
        // oracle would mark nothing and the run end on a uniform draw.
        for (marked, once) in [
            (&[37usize, 37][..], &[37usize][..]),
            (&[37, 12, 37], &[37, 12]),
        ] {
            let repeated = search(6, marked, &mut rng_from_seed(5)).unwrap();
            assert!(repeated.success_probability > 0.9, "{repeated:?}");
            assert!(repeated.hit);
            let distinct = search(6, once, &mut rng_from_seed(5)).unwrap();
            assert_eq!(repeated, distinct, "{marked:?} vs {once:?}");
        }
        let run = search_with_iterations(6, &[9, 9, 9], 6, &mut rng_from_seed(8)).unwrap();
        assert_eq!(
            run,
            search_with_iterations(6, &[9], 6, &mut rng_from_seed(8)).unwrap()
        );
    }

    #[test]
    fn in_place_reflections_equal_rebuilding_the_state() {
        // The reflections as they were: copy the amplitudes out, flip
        // signs, renormalize through `from_amplitudes`.
        let marked = [3usize, 17, 42];
        let mut fast = StateVector::zero(6);
        for q in 0..6 {
            Gate::H(q).apply(&mut fast).unwrap();
        }
        let mut slow = fast.clone();
        for round in 0..4 {
            apply_oracle(&mut fast, &marked).unwrap();
            let mut amps = slow.amplitudes().to_vec();
            for &m in &marked {
                amps[m] = -amps[m];
            }
            slow = StateVector::from_amplitudes(amps).unwrap();
            assert_eq!(fast, slow, "oracle, round {round}");

            apply_diffusion(&mut fast).unwrap();
            for q in 0..6 {
                Gate::H(q).apply(&mut slow).unwrap();
            }
            let mut amps = slow.amplitudes().to_vec();
            for a in amps.iter_mut().skip(1) {
                *a = -*a;
            }
            slow = StateVector::from_amplitudes(amps).unwrap();
            for q in 0..6 {
                Gate::H(q).apply(&mut slow).unwrap();
            }
            assert_eq!(fast, slow, "diffusion, round {round}");
        }
    }

    #[test]
    fn empty_marked_rejected() {
        let mut rng = rng_from_seed(4);
        assert!(search(4, &[], &mut rng).is_err());
    }

    #[test]
    fn marked_out_of_range_rejected() {
        let mut rng = rng_from_seed(4);
        assert!(search(3, &[8], &mut rng).is_err());
    }

    #[test]
    fn beats_classical_probe_count() {
        let n_qubits = 8;
        let quantum = optimal_iterations(n_qubits, 1) as f64;
        let classical = classical_expected_probes(n_qubits, 1);
        assert!(
            quantum < classical / 4.0,
            "quantum {quantum} vs classical {classical}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let a = search(6, &[9], &mut rng_from_seed(8)).unwrap();
        let b = search(6, &[9], &mut rng_from_seed(8)).unwrap();
        assert_eq!(a, b);
    }
}

//! Grover search.
//!
//! The quadratic-speedup workhorse for unstructured search: `~π/4·√(N/M)`
//! oracle calls to find one of `M` marked items among `N`, versus `N/M`
//! expected classical probes. Used in the benches as the "large data set"
//! demonstration of §II-C.
//!
//! The search is simulated in its invariant plane. From the uniform start,
//! the phase oracle and the diffusion `2|s⟩⟨s| − I` keep every marked item
//! at one amplitude and every unmarked item at another, so the simulator
//! carries those two real numbers: an iteration is O(1) instead of 2n
//! Hadamard sweeps over 2ⁿ amplitudes, and the measurement walks the same
//! index-order cumulative distribution as `StateVector::measure_all` a
//! run of unmarked items at a time. The whole-state circuit stays in the
//! tests as the oracle the plane is checked against (DIVERGENCES.md,
//! "Grover search is carried in its invariant plane").
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

use crate::{QuantumError, MAX_QUBITS};
use numerics::rng::Rng;

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
pub(crate) fn optimal_iterations(n_qubits: usize, n_marked: usize) -> usize {
    let n = (n_qubits as f64).exp2();
    let m = n_marked.max(1) as f64;
    let iters = (std::f64::consts::FRAC_PI_4 * (n / m).sqrt()).floor() as usize;
    iters.max(1)
}

/// The iteration count [`search`] runs for `marked`: the optimal count for
/// its distinct items, so a cost model that calls this plans the circuit
/// that runs.
#[must_use]
pub fn search_iterations(n_qubits: usize, marked: &[usize]) -> usize {
    optimal_iterations(n_qubits, distinct(marked).len())
}

/// The marked items sorted, without repeats. The oracle flips a marked
/// state's sign once; an item listed twice would be flipped back, and
/// counted twice by [`optimal_iterations`].
fn distinct(marked: &[usize]) -> Vec<usize> {
    let mut items = marked.to_vec();
    items.sort_unstable();
    items.dedup();
    items
}

/// Runs Grover search with the optimal iteration count and measures.
/// Repeated marked items count once.
///
/// # Errors
///
/// * [`QuantumError::Algorithm`] when `marked` is empty.
/// * [`QuantumError::BadRegisterWidth`] outside `1..=MAX_QUBITS`.
/// * [`QuantumError::BasisOutOfRange`] for marked items beyond `2^n`.
pub fn search<R: Rng>(
    n_qubits: usize,
    marked: &[usize],
    rng: &mut R,
) -> Result<GroverRun, QuantumError> {
    let iterations = search_iterations(n_qubits, marked);
    search_with_iterations(n_qubits, marked, iterations, rng)
}

/// Runs Grover search with an explicit iteration count. Repeated marked
/// items count once.
///
/// # Errors
///
/// Same conditions as [`search`].
pub(crate) fn search_with_iterations<R: Rng>(
    n_qubits: usize,
    marked: &[usize],
    iterations: usize,
    rng: &mut R,
) -> Result<GroverRun, QuantumError> {
    let marked = distinct(marked);
    if marked.is_empty() {
        return Err(QuantumError::Algorithm {
            reason: "grover search needs at least one marked item".into(),
        });
    }
    if n_qubits == 0 || n_qubits > MAX_QUBITS {
        return Err(QuantumError::BadRegisterWidth { n_qubits });
    }
    let dim = 1usize << n_qubits;
    if let Some(&basis) = marked.last().filter(|&&m| m >= dim) {
        return Err(QuantumError::BasisOutOfRange { basis, dim });
    }
    // One amplitude per marked item, one per unmarked item, both real.
    let (n, m) = (dim as f64, marked.len() as f64);
    let uniform = 1.0 / n.sqrt();
    let (mut a_marked, mut a_rest) = (uniform, uniform);
    for _ in 0..iterations {
        // The oracle flips the marked sign; the diffusion reflects every
        // amplitude about the mean.
        a_marked = -a_marked;
        let mean = (m * a_marked + (n - m) * a_rest) / n;
        a_marked = 2.0 * mean - a_marked;
        a_rest = 2.0 * mean - a_rest;
    }
    let (p_marked, p_rest) = (a_marked * a_marked, a_rest * a_rest);
    let found = measure(rng.gen(), &marked, dim, p_marked, p_rest);
    Ok(GroverRun {
        found,
        hit: marked.binary_search(&found).is_ok(),
        iterations,
        success_probability: m * p_marked,
    })
}

/// The index [`StateVector::measure_all`] draws for `r` from a state with
/// probability `p_marked` on each of the sorted `marked` items and `p_rest`
/// on every other index below `dim`: the first index whose cumulative
/// probability exceeds `r`, walked in index order one marked item or one
/// run of unmarked items at a time, and `dim − 1` when `r` is past them
/// all.
///
/// [`StateVector::measure_all`]: crate::state::StateVector::measure_all
fn measure(r: f64, marked: &[usize], dim: usize, p_marked: f64, p_rest: f64) -> usize {
    let mut acc = 0.0;
    let mut start = 0;
    for &item in marked.iter().chain(std::iter::once(&dim)) {
        // The unmarked run `start..item`. Reaching it means `r >= acc`, so
        // `r < end` needs a non-empty run and a non-zero `p_rest`.
        let run = item - start;
        let end = acc + run as f64 * p_rest;
        if r < end {
            let offset = ((r - acc) / p_rest) as usize;
            return start + offset.min(run - 1);
        }
        acc = end;
        if item < dim {
            acc += p_marked;
            if r < acc {
                return item;
            }
        }
        start = item + 1;
    }
    dim - 1
}

/// Expected classical probe count to find one of `n_marked` items in a
/// space of `2^n_qubits` by uniform random probing without replacement.
#[must_use]
pub fn classical_expected_probes(n_qubits: usize, n_marked: usize) -> f64 {
    let n = (n_qubits as f64).exp2();
    let m = n_marked.max(1) as f64;
    (n + 1.0) / (m + 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::Gate;
    use crate::state::naive::normalize;
    use crate::state::StateVector;
    use numerics::rng::rng_from_seed;

    /// Applies the phase oracle: flips the sign of every marked basis
    /// state, then renormalizes (the arithmetic of
    /// [`StateVector::from_amplitudes`]: `Σ|a|²` in index order, `1/√`,
    /// scale).
    fn apply_oracle(state: &mut StateVector, marked: &[usize]) {
        let amps = state.amps_mut();
        for &m in marked {
            amps[m] = -amps[m];
        }
        normalize(state);
    }

    /// Applies the diffusion operator `2|s⟩⟨s| − I` via H⊗ⁿ · (phase flip
    /// on everything but |0…0⟩) · H⊗ⁿ.
    fn apply_diffusion(state: &mut StateVector) {
        let n = state.n_qubits();
        for q in 0..n {
            Gate::H(q).apply(state).unwrap();
        }
        for a in &mut state.amps_mut()[1..] {
            *a = -*a;
        }
        normalize(state);
        for q in 0..n {
            Gate::H(q).apply(state).unwrap();
        }
    }

    /// The whole-state circuit the plane replaces: all 2ⁿ amplitudes
    /// through `iterations` rounds of oracle and diffusion, before the
    /// measurement.
    fn whole_state(n_qubits: usize, marked: &[usize], iterations: usize) -> StateVector {
        let mut state = StateVector::zero(n_qubits);
        for q in 0..n_qubits {
            Gate::H(q).apply(&mut state).unwrap();
        }
        for _ in 0..iterations {
            apply_oracle(&mut state, marked);
            apply_diffusion(&mut state);
        }
        state
    }

    /// Marked lists for an `n`-qubit register: single items at both ends,
    /// a short list unsorted and with repeats, about two thirds of the
    /// space in descending order, and every item with one listed twice.
    fn marked_cases(n_qubits: usize) -> Vec<Vec<usize>> {
        let dim = 1usize << n_qubits;
        vec![
            vec![dim - 1],
            vec![0],
            vec![dim - 1, 3 % dim, 0, 3 % dim, dim / 2, dim - 1],
            (0..dim).rev().filter(|i| i % 3 != 1).collect(),
            (0..dim).rev().chain([dim / 2]).collect(),
        ]
    }

    #[test]
    fn the_plane_measures_what_the_whole_state_measures() {
        for n_qubits in 1..=12 {
            for marked in marked_cases(n_qubits) {
                let items = distinct(&marked);
                let optimal = optimal_iterations(n_qubits, items.len());
                for iterations in [0, 1, optimal, 2 * optimal] {
                    let state = whole_state(n_qubits, &items, iterations);
                    let success: f64 = items.iter().map(|&m| state.probability(m).unwrap()).sum();
                    for seed in 0..50 {
                        let plane = search_with_iterations(
                            n_qubits,
                            &marked,
                            iterations,
                            &mut rng_from_seed(seed),
                        )
                        .unwrap();
                        let found = state.clone().measure_all(&mut rng_from_seed(seed));
                        let case = format!(
                            "n {n_qubits}, {} marked, {iterations} iterations, seed {seed}",
                            items.len()
                        );
                        assert_eq!(plane.found, found, "{case}");
                        assert_eq!(plane.hit, items.contains(&found), "{case}");
                        assert_eq!(plane.iterations, iterations, "{case}");
                        assert!(
                            (plane.success_probability - success).abs() < 1e-12,
                            "{case}: {} vs {success}",
                            plane.success_probability
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn the_measurement_walks_runs_and_falls_back_to_the_last_index() {
        // Marked 2 and 5 of 8 at 0.25 each, the rest at 0.05 (total 0.8).
        let (marked, p_marked, p_rest) = ([2, 5], 0.25, 0.05);
        for (r, index) in [
            (0.0, 0),
            (0.07, 1),
            (0.12, 2),
            (0.34, 2),
            (0.37, 3),
            (0.42, 4),
            (0.6, 5),
            (0.72, 6),
            (0.79, 7),
            (0.81, 7),
        ] {
            assert_eq!(measure(r, &marked, 8, p_marked, p_rest), index, "r {r}");
        }
        // Nothing left on the unmarked items: every draw lands on a marked
        // one, or past the total on the last index.
        assert_eq!(measure(0.0, &[0], 4, 1.0, 0.0), 0);
        assert_eq!(measure(0.7, &[1, 2], 4, 0.5, 0.0), 2);
        assert_eq!(measure(0.7, &[1, 2], 4, 0.25, 0.0), 3);
    }

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
            assert_eq!(search_iterations(6, marked), search_iterations(6, once));
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
            apply_oracle(&mut fast, &marked);
            let mut amps = slow.amplitudes().to_vec();
            for &m in &marked {
                amps[m] = -amps[m];
            }
            slow = StateVector::from_amplitudes(amps).unwrap();
            assert_eq!(fast, slow, "oracle, round {round}");

            apply_diffusion(&mut fast);
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
        assert!(matches!(
            search(3, &[8], &mut rng),
            Err(QuantumError::BasisOutOfRange { basis: 8, dim: 8 })
        ));
        // Unsorted, two items out of range, no iterations to run: the
        // largest item is named all the same.
        assert!(matches!(
            search_with_iterations(3, &[9, 1, 8], 0, &mut rng),
            Err(QuantumError::BasisOutOfRange { basis: 9, dim: 8 })
        ));
    }

    #[test]
    fn bad_register_widths_are_errors_not_panics() {
        let mut rng = rng_from_seed(4);
        for n_qubits in [0, MAX_QUBITS + 1, 64, usize::MAX] {
            assert!(
                matches!(
                    search(n_qubits, &[1], &mut rng),
                    Err(QuantumError::BadRegisterWidth { n_qubits: n }) if n == n_qubits
                ),
                "{n_qubits} qubits"
            );
        }
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

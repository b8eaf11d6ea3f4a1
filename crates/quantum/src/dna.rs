//! Quantum DNA-sequence similarity.
//!
//! §II-C: "With enough qubit capacity, the entire inputted data-set can be
//! encoded simultaneously as a superposition of a single wave function …
//! Regarding genome sequencing, we have to investigate whether the quantum
//! approach can be used to calculate the similarity between two different
//! DNA sequences."
//!
//! This module makes that concrete with the standard amplitude-encoding
//! recipe: a sequence's `k`-mer frequency profile (a 4ᵏ-dimensional vector)
//! is normalized into the amplitudes of a `2k`-qubit state — the whole
//! profile in one wave function — and the similarity of two sequences is the
//! squared state overlap, estimated physically by the swap test
//! ([`crate::swap_test`]). The classical references (cosine similarity of
//! profiles, edit distance) validate the ranking.
//!
//! # Example
//!
//! ```
//! use quantum::dna::{kmer_state, quantum_similarity};
//! use numerics::rng::rng_from_seed;
//!
//! let mut rng = rng_from_seed(1);
//! let s = quantum_similarity("ACGTACGT", "ACGTACGT", 2, 200, &mut rng)?;
//! assert!(s > 0.9, "identical sequences: {s}");
//! # Ok::<(), quantum::QuantumError>(())
//! ```

use crate::state::StateVector;
use crate::swap_test::{estimate_overlap_sq, exact_overlap_sq};
use crate::QuantumError;
use numerics::rng::Rng;
use numerics::Complex;

/// Maps a nucleotide to its 2-bit code.
///
/// # Errors
///
/// Returns [`QuantumError::Algorithm`] for a non-ACGT character.
pub fn base_code(c: char) -> Result<usize, QuantumError> {
    match c.to_ascii_uppercase() {
        'A' => Ok(0),
        'C' => Ok(1),
        'G' => Ok(2),
        'T' => Ok(3),
        other => Err(QuantumError::Algorithm {
            reason: format!("invalid nucleotide `{other}`"),
        }),
    }
}

/// The longest supported `k`-mer: a profile has `4^k` entries.
pub const MAX_KMER: usize = 8;

/// The `k`-mer frequency profile of a sequence: a `4^k`-length count
/// vector.
///
/// # Errors
///
/// * [`QuantumError::Algorithm`] for invalid characters, `k == 0`, or a
///   sequence shorter than `k`.
pub fn kmer_profile(sequence: &str, k: usize) -> Result<Vec<f64>, QuantumError> {
    if k == 0 || k > MAX_KMER {
        return Err(QuantumError::Algorithm {
            reason: format!("k = {k} unsupported (1..={MAX_KMER})"),
        });
    }
    let chars: Vec<char> = sequence.chars().collect();
    if chars.len() < k {
        return Err(QuantumError::Algorithm {
            reason: format!("sequence of length {} shorter than k = {k}", chars.len()),
        });
    }
    let mut profile = vec![0.0; 1 << (2 * k)];
    for window in chars.windows(k) {
        let mut idx = 0usize;
        for &c in window {
            idx = (idx << 2) | base_code(c)?;
        }
        profile[idx] += 1.0;
    }
    Ok(profile)
}

/// Amplitude-encodes a sequence's `k`-mer profile into a `2k`-qubit state —
/// "the entire data-set … as a superposition of a single wave function".
///
/// # Errors
///
/// Propagates [`kmer_profile`] errors and amplitude validation.
pub fn kmer_state(sequence: &str, k: usize) -> Result<StateVector, QuantumError> {
    let profile = kmer_profile(sequence, k)?;
    StateVector::from_amplitudes(profile.into_iter().map(|x| Complex::new(x, 0.0)).collect())
}

/// Quantum similarity: swap-test estimate of the squared overlap of the two
/// `k`-mer states.
///
/// # Errors
///
/// Propagates encoding and swap-test errors.
pub fn quantum_similarity<R: Rng>(
    a: &str,
    b: &str,
    k: usize,
    shots: usize,
    rng: &mut R,
) -> Result<f64, QuantumError> {
    let sa = kmer_state(a, k)?;
    let sb = kmer_state(b, k)?;
    estimate_overlap_sq(&sa, &sb, shots, rng)
}

/// Exact (noise-free) quantum similarity: `|⟨a|b⟩|²` of the `k`-mer states,
/// which equals the squared cosine similarity of the profiles.
///
/// # Errors
///
/// Propagates encoding errors.
pub fn exact_similarity(a: &str, b: &str, k: usize) -> Result<f64, QuantumError> {
    let sa = kmer_state(a, k)?;
    let sb = kmer_state(b, k)?;
    exact_overlap_sq(&sa, &sb)
}

/// Classical cosine similarity of the raw `k`-mer profiles.
///
/// # Errors
///
/// Propagates [`kmer_profile`] errors.
pub fn cosine_similarity(a: &str, b: &str, k: usize) -> Result<f64, QuantumError> {
    let pa = kmer_profile(a, k)?;
    let pb = kmer_profile(b, k)?;
    let dot: f64 = pa.iter().zip(&pb).map(|(x, y)| x * y).sum();
    let na: f64 = pa.iter().map(|x| x * x).sum::<f64>().sqrt();
    let nb: f64 = pb.iter().map(|x| x * x).sum::<f64>().sqrt();
    Ok(dot / (na * nb))
}

/// Levenshtein edit distance — the classical sequence-comparison baseline.
#[must_use]
pub fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut curr = vec![0usize; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        curr[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let cost = usize::from(ca != cb);
            curr[j + 1] = (prev[j] + cost).min(prev[j + 1] + 1).min(curr[j] + 1);
        }
        std::mem::swap(&mut prev, &mut curr);
    }
    prev[b.len()]
}

/// Generates a random DNA sequence of the given length.
pub fn random_sequence<R: Rng>(rng: &mut R, len: usize) -> String {
    const BASES: [char; 4] = ['A', 'C', 'G', 'T'];
    (0..len)
        .map(|_| BASES[rng.gen_range(0..BASES.len())])
        .collect()
}

/// Mutates a sequence with independent per-base substitution probability
/// `rate`.
pub fn mutate_sequence<R: Rng>(rng: &mut R, sequence: &str, rate: f64) -> String {
    const BASES: [char; 4] = ['A', 'C', 'G', 'T'];
    sequence
        .chars()
        .map(|c| {
            if rng.gen::<f64>() < rate {
                BASES[rng.gen_range(0..BASES.len())]
            } else {
                c
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use numerics::rng::rng_from_seed;

    #[test]
    fn profile_counts_kmers() {
        let p = kmer_profile("AACG", 2).unwrap();
        // AA = 0b0000, AC = 0b0001, CG = 0b0110.
        assert_eq!(p[0b0000], 1.0);
        assert_eq!(p[0b0001], 1.0);
        assert_eq!(p[0b0110], 1.0);
        assert_eq!(p.iter().sum::<f64>(), 3.0);
    }

    #[test]
    fn profile_rejects_bad_input() {
        assert!(kmer_profile("ACGX", 2).is_err());
        assert!(kmer_profile("A", 2).is_err());
        assert!(kmer_profile("ACGT", 0).is_err());
    }

    #[test]
    fn kmer_state_width() {
        let s = kmer_state("ACGTACGT", 2).unwrap();
        assert_eq!(s.n_qubits(), 4);
        assert!((s.norm() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn exact_similarity_is_cosine_squared() {
        let a = "ACGTACGTAC";
        let b = "ACGTTTGTAC";
        let cos = cosine_similarity(a, b, 2).unwrap();
        let q = exact_similarity(a, b, 2).unwrap();
        assert!((q - cos * cos).abs() < 1e-12);
    }

    #[test]
    fn identical_sequences_similarity_one() {
        let s = exact_similarity("ACGTACGT", "ACGTACGT", 3).unwrap();
        assert!((s - 1.0).abs() < 1e-12);
    }

    #[test]
    fn mutation_reduces_similarity_monotonically() {
        let mut rng = rng_from_seed(10);
        let base = random_sequence(&mut rng, 120);
        let slight = mutate_sequence(&mut rng, &base, 0.05);
        let heavy = mutate_sequence(&mut rng, &base, 0.5);
        let s_slight = exact_similarity(&base, &slight, 2).unwrap();
        let s_heavy = exact_similarity(&base, &heavy, 2).unwrap();
        assert!(
            s_slight > s_heavy,
            "slight {s_slight} should exceed heavy {s_heavy}"
        );
    }

    #[test]
    fn sampled_similarity_tracks_exact() {
        let mut rng = rng_from_seed(11);
        let a = "ACGTACGTACGTACG";
        let b = "ACGAACGTACCTACG";
        let exact = exact_similarity(a, b, 2).unwrap();
        let sampled = quantum_similarity(a, b, 2, 2000, &mut rng).unwrap();
        assert!(
            (sampled - exact).abs() < 0.08,
            "sampled {sampled} vs exact {exact}"
        );
    }

    #[test]
    fn edit_distance_basics() {
        assert_eq!(edit_distance("", ""), 0);
        assert_eq!(edit_distance("ACGT", "ACGT"), 0);
        assert_eq!(edit_distance("ACGT", "AGGT"), 1);
        assert_eq!(edit_distance("ACGT", ""), 4);
        assert_eq!(edit_distance("kitten", "sitting"), 3);
    }

    #[test]
    fn quantum_ranking_agrees_with_edit_distance() {
        let mut rng = rng_from_seed(12);
        let reference = random_sequence(&mut rng, 100);
        let near = mutate_sequence(&mut rng, &reference, 0.03);
        let far = mutate_sequence(&mut rng, &reference, 0.4);
        // Edit distance ranks near < far; quantum similarity must rank
        // near > far.
        assert!(edit_distance(&reference, &near) < edit_distance(&reference, &far));
        let s_near = exact_similarity(&reference, &near, 3).unwrap();
        let s_far = exact_similarity(&reference, &far, 3).unwrap();
        assert!(s_near > s_far);
    }

    #[test]
    fn random_sequence_alphabet() {
        let mut rng = rng_from_seed(13);
        let s = random_sequence(&mut rng, 200);
        assert_eq!(s.len(), 200);
        assert!(s.chars().all(|c| "ACGT".contains(c)));
    }
}

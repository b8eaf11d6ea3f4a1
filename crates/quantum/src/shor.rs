//! Shor's factoring algorithm.
//!
//! The paper names cryptography as the clearest quantum killer app: "a
//! quantum computer has the potential to break any RSA-based encryption by
//! finding the prime factors of the public key" (§II-C). This module runs
//! the full pipeline on the simulator:
//!
//! 1. classical pre-checks (even, perfect power, lucky gcd);
//! 2. quantum order finding: phase estimation over the controlled modular
//!    multiplication unitaries of [`crate::arith`], with an inverse QFT on
//!    the counting register;
//! 3. continued-fraction post-processing of the measured phase;
//! 4. factor extraction from an even order `r` with
//!    `a^{r/2} ≢ −1 (mod N)`.
//!
//! Order finding is organised around one fact: the counting register is
//! the low qubits, so the state is `2^work_bits` contiguous *blocks* of
//! `2^counting_bits` amplitudes, one per work-register value, and every
//! gate of the circuit except the work register's own (`X`, the modular
//! multiplications) acts inside a block. Those gates run block by block on
//! a cache-resident copy, and only on the blocks that hold an amplitude at
//! all — after the multiplications that is one block per element of the
//! orbit of `a`, `r` of `2^work_bits`. Every amplitude goes through the
//! same operations in the same order as in a gate-at-a-time sweep of the
//! whole register (DESIGN.md §10).
//!
//! # Example
//!
//! ```
//! use quantum::shor;
//! use numerics::rng::rng_from_seed;
//!
//! let mut rng = rng_from_seed(7);
//! let outcome = shor::factor(15, &mut rng, 20)?;
//! let (p, q) = outcome.factors;
//! assert_eq!(p * q, 15);
//! # Ok::<(), quantum::QuantumError>(())
//! ```

use crate::arith::{apply_controlled_modmul_with, ModmulScratch};
use crate::gate::Gate;
use crate::numtheory::{convergents, gcd, is_perfect_power, is_prime, mod_pow};
use crate::qft::inverse_qft_circuit;
use crate::state::{collapse_scale, StateVector};
use crate::{QuantumError, MAX_QUBITS};
use numerics::rng::Rng;
use numerics::Complex;

/// Result of one quantum order-finding run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OrderFinding {
    /// The base whose order was sought.
    pub a: u64,
    /// The modulus.
    pub n: u64,
    /// The measured counting-register value.
    pub measurement: u64,
    /// Counting-register width.
    pub counting_bits: usize,
    /// The recovered order, when continued fractions succeeded and the
    /// candidate verified (`a^r ≡ 1 mod n`).
    pub order: Option<u64>,
}

/// Statistics of a full factoring run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FactorOutcome {
    /// The recovered nontrivial factors `(p, q)` with `p·q = n`.
    pub factors: (u64, u64),
    /// Number of quantum order-finding invocations used.
    pub quantum_calls: u64,
    /// Total simulated quantum gates/permutations applied.
    pub quantum_ops: u64,
    /// Whether a classical shortcut (gcd/parity/perfect power) short-
    /// circuited the quantum part.
    pub classical_shortcut: bool,
}

fn bits_for(n: u64) -> usize {
    (64 - n.leading_zeros()) as usize
}

/// One quantum order-finding attempt for `a` modulo `n`.
///
/// Uses `2·m` counting qubits (where `m = ⌈log₂ n⌉`), capped so the total
/// register stays within [`MAX_QUBITS`].
///
/// # Errors
///
/// * [`QuantumError::Algorithm`] when `gcd(a, n) != 1` or the problem needs
///   more than [`MAX_QUBITS`] qubits.
pub fn order_finding<R: Rng>(a: u64, n: u64, rng: &mut R) -> Result<OrderFinding, QuantumError> {
    if gcd(a, n) != 1 {
        return Err(QuantumError::Algorithm {
            reason: format!("gcd({a}, {n}) != 1"),
        });
    }
    let work_bits = bits_for(n);
    let counting_bits = (2 * work_bits).min(MAX_QUBITS.saturating_sub(work_bits));
    if counting_bits < work_bits {
        return Err(QuantumError::Algorithm {
            reason: format!("{n} too large to simulate"),
        });
    }
    let total = counting_bits + work_bits;

    let mut state = StateVector::try_zero(total)?;
    let mut cell = StateVector::try_zero(counting_bits)?;
    // Counting register into uniform superposition. |0…0⟩ lives in the
    // block of work value 0.
    let hadamards: Vec<Gate> = (0..counting_bits).map(Gate::H).collect();
    run_in_blocks(&mut state, &mut cell, &[0], &hadamards)?;
    // Work register to |1⟩.
    Gate::X(counting_bits).apply(&mut state)?;

    // Controlled U^(2^j) for each counting qubit.
    let mut scratch = ModmulScratch::default();
    for j in 0..counting_bits {
        let a_pow = mod_pow(a, 1u64 << j, n);
        apply_controlled_modmul_with(
            &mut state,
            j,
            counting_bits,
            work_bits,
            a_pow,
            n,
            &mut scratch,
        )?;
    }

    // Inverse QFT on the counting register, then measure it.
    let live = live_blocks(&state, cell.dim());
    let iqft = inverse_qft_circuit(counting_bits)?;
    run_in_blocks(&mut state, &mut cell, &live, iqft.gates())?;
    let measurement = measure_low_register(&mut state, counting_bits, &live, rng);

    // Continued fractions: measurement / 2^counting ≈ s / r.
    let denom = 1u64 << counting_bits;
    let mut order = None;
    for (_, q) in convergents(measurement, denom, n) {
        if q > 1 && mod_pow(a, q, n) == 1 {
            order = Some(q);
            break;
        }
    }
    Ok(OrderFinding {
        a,
        n,
        measurement,
        counting_bits,
        order,
    })
}

/// Indices of the `block`-amplitude blocks of `state` that hold a nonzero
/// amplitude.
fn live_blocks(state: &StateVector, block: usize) -> Vec<usize> {
    state
        .amplitudes()
        .chunks_exact(block)
        .enumerate()
        .filter(|(_, amps)| amps.iter().any(|a| *a != Complex::ZERO))
        .map(|(b, _)| b)
        .collect()
}

/// Runs `gates`, which must all act on the low `cell.n_qubits()` qubits,
/// on the listed blocks of `state`: each block is copied into `cell`, taken
/// through the whole gate list while it sits in cache, and copied back —
/// one pass over memory instead of one per gate. A gate on low qubits
/// pairs amplitudes of one block only, so this performs exactly the
/// arithmetic of applying each gate to the whole register. The caller
/// leaves out only blocks that are entirely zero, which every gate (a
/// linear map) would leave zero.
fn run_in_blocks(
    state: &mut StateVector,
    cell: &mut StateVector,
    blocks: &[usize],
    gates: &[Gate],
) -> Result<(), QuantumError> {
    let len = cell.dim();
    for &b in blocks {
        let block = &mut state.amps_mut()[b * len..(b + 1) * len];
        cell.amps_mut().copy_from_slice(block);
        for gate in gates {
            gate.apply(cell)?;
        }
        block.copy_from_slice(cell.amplitudes());
    }
    Ok(())
}

/// Measures qubits `0..width` of `state` in order, as `width` calls of
/// [`StateVector::measure_qubit`] would, and returns the outcomes as an
/// integer (qubit `q` is bit `q`). Only the `live` blocks of `2^width`
/// amplitudes are visited; the rest are zero and add nothing to any sum.
///
/// Each qubit needs one reduction over the state before its RNG draw; the
/// collapse and rescale it causes are applied to each amplitude as the
/// next qubit's reduction reads it (same values, same summation order:
/// `width` passes instead of `4·width`). The last collapse is left
/// pending: the caller drops the state.
fn measure_low_register<R: Rng>(
    state: &mut StateVector,
    width: usize,
    live: &[usize],
    rng: &mut R,
) -> u64 {
    let len = 1usize << width;
    let amps = state.amps_mut();
    let mut measurement = 0u64;
    // The previous qubit's collapse: (its mask, its outcome, 1/norm).
    let mut pending: Option<(usize, bool, f64)> = None;
    for q in 0..width {
        let mask = 1usize << q;
        let (mut w0, mut w1) = (0.0, 0.0);
        for &b in live {
            for (c, a) in amps[b * len..(b + 1) * len].iter_mut().enumerate() {
                if let Some((prev, outcome, scale)) = pending {
                    *a = if (c & prev != 0) == outcome {
                        a.scale(scale)
                    } else {
                        Complex::ZERO
                    };
                }
                if c & mask == 0 {
                    w0 += a.norm_sqr();
                } else {
                    w1 += a.norm_sqr();
                }
            }
        }
        let outcome = rng.gen::<f64>() < w1;
        if outcome {
            measurement |= 1 << q;
        }
        let scale = collapse_scale(if outcome { w1 } else { w0 });
        pending = Some((mask, outcome, scale));
    }
    measurement
}

/// Factors `n` with Shor's algorithm, retrying order finding up to
/// `max_attempts` times. Classical shortcuts (parity, perfect powers,
/// lucky gcd draws) are taken when available.
///
/// # Errors
///
/// * [`QuantumError::Algorithm`] when `n` is prime, smaller than 4, or no
///   factor was found within the attempt budget.
pub fn factor<R: Rng>(
    n: u64,
    rng: &mut R,
    max_attempts: u64,
) -> Result<FactorOutcome, QuantumError> {
    factor_with_options(n, rng, max_attempts, true)
}

/// Like [`factor`], but with classical shortcuts optionally disabled so the
/// run exercises the quantum order-finding path even when a lucky `gcd`
/// draw would have produced a factor for free (used by experiment E9 to
/// measure the quantum pipeline itself). The parity and primality
/// pre-checks still apply — they are prerequisites of the algorithm, not
/// shortcuts.
///
/// # Errors
///
/// Same conditions as [`factor`].
pub fn factor_with_options<R: Rng>(
    n: u64,
    rng: &mut R,
    max_attempts: u64,
    classical_shortcuts: bool,
) -> Result<FactorOutcome, QuantumError> {
    if n < 4 {
        return Err(QuantumError::Algorithm {
            reason: format!("{n} has no nontrivial factorization"),
        });
    }
    if is_prime(n) {
        return Err(QuantumError::Algorithm {
            reason: format!("{n} is prime"),
        });
    }
    if n % 2 == 0 {
        return Ok(FactorOutcome {
            factors: (2, n / 2),
            quantum_calls: 0,
            quantum_ops: 0,
            classical_shortcut: true,
        });
    }
    if is_perfect_power(n) {
        // Find the base by root extraction.
        for k in 2..=n.ilog2() {
            let b = (n as f64).powf(1.0 / k as f64).round() as u64;
            if b >= 2 && b.checked_pow(k) == Some(n) {
                return Ok(FactorOutcome {
                    factors: (b, n / b),
                    quantum_calls: 0,
                    quantum_ops: 0,
                    classical_shortcut: true,
                });
            }
        }
    }

    let mut quantum_calls = 0u64;
    let mut quantum_ops = 0u64;
    for _ in 0..max_attempts {
        let a = rng.gen_range(2..n);
        let g = gcd(a, n);
        if g != 1 {
            if classical_shortcuts {
                // Lucky classical factor.
                return Ok(FactorOutcome {
                    factors: (g, n / g),
                    quantum_calls,
                    quantum_ops,
                    classical_shortcut: true,
                });
            }
            continue; // redraw a coprime base
        }
        quantum_calls += 1;
        let run = order_finding(a, n, rng)?;
        // Cost model: counting_bits controlled-modmuls + iQFT gates.
        quantum_ops +=
            run.counting_bits as u64 + (run.counting_bits * (run.counting_bits + 3) / 2) as u64;
        let Some(r) = run.order else { continue };
        if r % 2 != 0 {
            continue;
        }
        let half = mod_pow(a, r / 2, n);
        if half == n - 1 {
            continue; // a^{r/2} ≡ −1: useless
        }
        let p = gcd(half + 1, n);
        let q = gcd(half + n - 1, n);
        for f in [p, q] {
            if f > 1 && f < n {
                return Ok(FactorOutcome {
                    factors: (f, n / f),
                    quantum_calls,
                    quantum_ops,
                    classical_shortcut: false,
                });
            }
        }
    }
    Err(QuantumError::Algorithm {
        reason: format!("no factor of {n} found in {max_attempts} attempts"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use numerics::rng::rng_from_seed;

    #[test]
    fn order_finding_recovers_known_order() {
        let mut rng = rng_from_seed(11);
        // Order of 7 mod 15 is 4; phase estimation succeeds with high
        // probability — try a few runs.
        let mut found = false;
        for _ in 0..6 {
            let run = order_finding(7, 15, &mut rng).unwrap();
            if run.order == Some(4) {
                found = true;
                break;
            }
        }
        assert!(found, "order of 7 mod 15 never recovered");
    }

    /// Order finding a gate at a time over the whole register: every gate
    /// a sweep, every multiplication a full-width permutation, every
    /// measurement on its own.
    fn sweep_order_finding<R: Rng>(a: u64, n: u64, rng: &mut R) -> u64 {
        let work_bits = bits_for(n);
        let counting_bits = (2 * work_bits).min(MAX_QUBITS - work_bits);
        let mut state = StateVector::zero(counting_bits + work_bits);
        for q in 0..counting_bits {
            Gate::H(q).apply(&mut state).unwrap();
        }
        Gate::X(counting_bits).apply(&mut state).unwrap();
        for j in 0..counting_bits {
            let a_pow = mod_pow(a, 1u64 << j, n);
            crate::arith::tests::full_width_modmul(
                &mut state,
                j,
                counting_bits,
                work_bits,
                a_pow,
                n,
            );
        }
        for gate in inverse_qft_circuit(counting_bits).unwrap().gates() {
            gate.apply(&mut state).unwrap();
        }
        let mut measurement = 0u64;
        for q in 0..counting_bits {
            if crate::state::naive::measure_qubit(&mut state, q, rng) {
                measurement |= 1 << q;
            }
        }
        measurement
    }

    #[test]
    fn block_wise_order_finding_measures_what_the_sweeps_measure() {
        // 12, 15 and (once) 18 qubits; orders 2 to 12.
        for (a, n, seeds) in [
            (7u64, 15u64, 6u64),
            (4, 15, 3),
            (2, 21, 3),
            (8, 21, 2),
            (2, 35, 1),
        ] {
            for seed in 0..seeds {
                let (mut fast_rng, mut slow_rng) = (rng_from_seed(seed), rng_from_seed(seed));
                let run = order_finding(a, n, &mut fast_rng).unwrap();
                assert_eq!(
                    run.measurement,
                    sweep_order_finding(a, n, &mut slow_rng),
                    "{a} mod {n}, seed {seed}"
                );
                assert_eq!(fast_rng.gen::<u64>(), slow_rng.gen::<u64>());
            }
        }
    }

    #[test]
    fn fused_register_measurement_equals_qubit_by_qubit() {
        // Three live blocks of eight amplitudes, a dead one between them.
        let width = 3;
        for seed in 0..50u64 {
            let mut rng = rng_from_seed(seed);
            let amps: Vec<Complex> = (0..32)
                .map(|i| {
                    if (i >> width) == 1 {
                        Complex::ZERO
                    } else {
                        Complex::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0))
                    }
                })
                .collect();
            let mut fast = StateVector::from_amplitudes(amps).unwrap();
            let mut slow = fast.clone();
            let live = live_blocks(&fast, 1 << width);
            assert_eq!(live, [0, 2, 3]);
            let (mut fast_rng, mut slow_rng) = (rng_from_seed(seed), rng_from_seed(seed));
            let measured = measure_low_register(&mut fast, width, &live, &mut fast_rng);
            let mut expected = 0u64;
            for q in 0..width {
                if crate::state::naive::measure_qubit(&mut slow, q, &mut slow_rng) {
                    expected |= 1 << q;
                }
            }
            assert_eq!(measured, expected, "seed {seed}");
            assert_eq!(fast_rng.gen::<u64>(), slow_rng.gen::<u64>());
        }
    }

    #[test]
    fn order_finding_rejects_common_factor() {
        let mut rng = rng_from_seed(1);
        assert!(order_finding(5, 15, &mut rng).is_err());
    }

    #[test]
    fn factors_15() {
        let mut rng = rng_from_seed(3);
        let out = factor(15, &mut rng, 30).unwrap();
        let (p, q) = out.factors;
        assert_eq!(p * q, 15);
        assert!(p > 1 && q > 1);
    }

    #[test]
    fn factors_21() {
        let mut rng = rng_from_seed(5);
        let out = factor(21, &mut rng, 30).unwrap();
        let (p, q) = out.factors;
        assert_eq!(p * q, 21);
        assert!(p > 1 && q > 1);
    }

    #[test]
    fn even_numbers_shortcut() {
        let mut rng = rng_from_seed(2);
        let out = factor(22, &mut rng, 5).unwrap();
        assert!(out.classical_shortcut);
        assert_eq!(out.factors.0 * out.factors.1, 22);
        assert_eq!(out.quantum_calls, 0);
    }

    #[test]
    fn perfect_power_shortcut() {
        let mut rng = rng_from_seed(2);
        let out = factor(27, &mut rng, 5).unwrap();
        assert!(out.classical_shortcut);
        assert_eq!(out.factors.0 * out.factors.1, 27);
    }

    #[test]
    fn primes_rejected() {
        let mut rng = rng_from_seed(4);
        assert!(factor(13, &mut rng, 5).is_err());
        assert!(factor(3, &mut rng, 5).is_err());
    }

    #[test]
    fn deterministic_given_seed() {
        let a = factor(15, &mut rng_from_seed(9), 30).unwrap();
        let b = factor(15, &mut rng_from_seed(9), 30).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn quantum_only_path_factors_without_shortcuts() {
        let mut rng = rng_from_seed(6);
        let out = factor_with_options(15, &mut rng, 40, false).unwrap();
        assert_eq!(out.factors.0 * out.factors.1, 15);
        assert!(!out.classical_shortcut);
        assert!(out.quantum_calls >= 1, "must use order finding");
    }
}

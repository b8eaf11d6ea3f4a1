//! Shor's factoring algorithm.
//!
//! The paper names cryptography as the clearest quantum killer app: "a
//! quantum computer has the potential to break any RSA-based encryption by
//! finding the prime factors of the public key" (§II-C). This module runs
//! the full pipeline on the simulator:
//!
//! 1. classical pre-checks (even, perfect power, lucky gcd);
//! 2. quantum order finding: phase estimation over the controlled modular
//!    multiplications `|y⟩ → |a·y mod N⟩`, applied as permutations of the
//!    work register, with an inverse QFT on the counting register;
//! 3. continued-fraction post-processing of the measured phase;
//! 4. factor extraction from an even order `r` with
//!    `a^{r/2} ≢ −1 (mod N)`.
//!
//! Order finding needs no counting register. Each counting qubit is
//! measured right after its controlled multiplication and the phases the
//! earlier outcomes condition (the semiclassical inverse QFT, Griffiths &
//! Niu, PRL 76, 3228, 1996), so one control qubit, reset after each draw,
//! stands in for all of them (Mosca & Ekert 1998; Beauregard, *Circuit for
//! Shor's algorithm using 2n+3 qubits*, 2003). The simulated state is the
//! work register alone: `2^work_bits` amplitudes and the control qubit's
//! two branches. The served measurement and RNG stream equal those of the
//! whole circuit with its coherent inverse QFT measured qubit by qubit,
//! which the tests keep as the oracle (DIVERGENCES.md, "Order finding
//! recycles one control qubit").
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

use crate::numtheory::{convergents, gcd, is_perfect_power, is_prime, mod_pow};
use crate::{QuantumError, MAX_QUBITS};
use numerics::rng::Rng;
use numerics::Complex;
use std::f64::consts::{FRAC_1_SQRT_2, PI};

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

/// The largest modulus order finding simulates, 4 095: a `w`-qubit work
/// register needs at least `w` counting qubits beside it inside
/// [`MAX_QUBITS`], so `w ≤ MAX_QUBITS / 2`. [`order_finding`] refuses a
/// larger `n`, and so the quantum backend does not run a `Factor` past it.
pub const MAX_N: u64 = (1 << (MAX_QUBITS / 2)) - 1;

/// One quantum order-finding attempt for `a` modulo `n`.
///
/// Uses `2·m` counting qubits (where `m = ⌈log₂ n⌉`), capped so the total
/// register stays within [`MAX_QUBITS`].
///
/// # Errors
///
/// * [`QuantumError::Algorithm`] when `gcd(a, n) != 1` or `n` is above
///   [`MAX_N`].
pub fn order_finding<R: Rng>(a: u64, n: u64, rng: &mut R) -> Result<OrderFinding, QuantumError> {
    if gcd(a, n) != 1 {
        return Err(QuantumError::Algorithm {
            reason: format!("gcd({a}, {n}) != 1"),
        });
    }
    if n > MAX_N {
        return Err(QuantumError::Algorithm {
            reason: format!("{n} too large to simulate"),
        });
    }
    let work_bits = bits_for(n);
    let counting_bits = (2 * work_bits).min(MAX_QUBITS - work_bits);

    // The work register starts at |1⟩.
    let mut work = vec![Complex::ZERO; 1 << work_bits];
    work[1] = Complex::ONE;
    let measurement = estimate_phase(a, n, counting_bits, work, rng);
    Ok(OrderFinding {
        a,
        n,
        measurement,
        counting_bits,
        order: order_from_phase(a, n, measurement, counting_bits),
    })
}

/// Continued fractions: `measurement / 2^counting_bits ≈ s / r`, and the
/// first convergent's denominator `r > 1` with `a^r ≡ 1 (mod n)`.
fn order_from_phase(a: u64, n: u64, measurement: u64, counting_bits: usize) -> Option<u64> {
    convergents(measurement, 1u64 << counting_bits, n)
        .into_iter()
        .map(|(_, q)| q)
        .find(|&q| q > 1 && mod_pow(a, q, n) == 1)
}

/// Phase estimation of `U_a: |y⟩ → |a·y mod n⟩` (identity for `y ≥ n`) on
/// the work register `psi`, with `width` counting qubits measured in
/// order, one `rng.gen::<f64>()` each, as the circuit with a coherent
/// inverse QFT measured qubit by qubit would (but for a draw within
/// rounding error of a qubit's probability, DIVERGENCES.md); returns the
/// outcomes as an integer (qubit `q` is bit `q`).
///
/// After the inverse QFT's leading swaps, qubit `q` is the one that
/// controls `U^(2^(width−1−q))`, and it is touched only by the controlled
/// phases `cis(−π/2^(q−j))` from qubits `j < q`, in ascending `j`, and
/// then by its own Hadamard. The phases are diagonal, so they commute with
/// measuring qubit `j` first, after which each is either nothing
/// (`m_j = 0`) or a phase on the control's one-branch. So each qubit is a
/// fresh control: its branches are `ψ` and `s = U^(2^(width−1−q))ψ` with
/// the phases applied, its Hadamard leaves `h(ψ + s)` and `h(ψ − s)`, and
/// the drawn branch is the next `ψ`. The branches are not rescaled: the
/// draw compares against `w1 / (w0 + w1)`.
fn estimate_phase<R: Rng>(a: u64, n: u64, width: usize, mut psi: Vec<Complex>, rng: &mut R) -> u64 {
    let h = FRAC_1_SQRT_2;
    let mut s = vec![Complex::ZERO; psi.len()];
    let mut measurement = 0u64;
    for q in 0..width {
        let b = mod_pow(a, 1u64 << (width - 1 - q), n);
        for (y, &amp) in psi.iter().enumerate() {
            let to = if (y as u64) < n {
                (b * y as u64 % n) as usize
            } else {
                y
            };
            s[to] = amp;
        }
        for j in (0..q).filter(|&j| measurement >> j & 1 == 1) {
            let phase = Complex::cis(-(PI / f64::from(1u32 << (q - j))));
            for x in s.iter_mut() {
                *x = phase * *x;
            }
        }
        let (mut w0, mut w1) = (0.0, 0.0);
        for (x0, x1) in psi.iter_mut().zip(s.iter_mut()) {
            let (a0, a1) = (*x0, *x1);
            *x0 = Complex::new(h * a0.re + h * a1.re, h * a0.im + h * a1.im);
            *x1 = Complex::new(h * a0.re - h * a1.re, h * a0.im - h * a1.im);
            w0 += x0.norm_sqr();
            w1 += x1.norm_sqr();
        }
        if rng.gen::<f64>() < w1 / (w0 + w1) {
            measurement |= 1 << q;
            std::mem::swap(&mut psi, &mut s);
        }
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
    use crate::gate::Gate;
    use crate::qft::inverse_qft_circuit;
    use crate::state::{collapse_scale, StateVector};
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

    /// The work-register permutation `y ↦ a·y mod n` (identity for
    /// `y ≥ n`) as a table.
    fn modmul_permutation(a: u64, n: u64, work_bits: usize) -> Vec<usize> {
        (0..1usize << work_bits)
            .map(|y| {
                if (y as u64) < n {
                    (a * y as u64 % n) as usize
                } else {
                    y
                }
            })
            .collect()
    }

    /// The controlled multiplication `|c⟩|y⟩ → |c⟩|a^c · y mod n⟩` as one
    /// `2^n`-entry permutation of the whole register (the counting register
    /// is the low qubits): the amplitude of `|i⟩` moves to `|π(i)⟩`.
    fn full_width_modmul(
        state: &mut StateVector,
        control: usize,
        counting_bits: usize,
        work_bits: usize,
        a: u64,
        n: u64,
    ) {
        let work_perm = modmul_permutation(a, n, work_bits);
        let work_mask = (1usize << work_bits) - 1;
        let perm: Vec<usize> = (0..state.dim())
            .map(|i| {
                if i & (1 << control) == 0 {
                    i
                } else {
                    let y = (i >> counting_bits) & work_mask;
                    (i & !(work_mask << counting_bits)) | (work_perm[y] << counting_bits)
                }
            })
            .collect();
        let old = state.amplitudes().to_vec();
        let amps = state.amps_mut();
        for (i, &p) in perm.iter().enumerate() {
            amps[p] = old[i];
        }
    }

    /// Phase estimation a gate at a time over the whole register, from
    /// `|+…+⟩ ⊗ work`: every gate a sweep, every multiplication a
    /// full-width permutation, the coherent inverse QFT, every measurement
    /// on its own.
    fn sweep_phase<R: Rng>(a: u64, n: u64, width: usize, work: &[Complex], rng: &mut R) -> u64 {
        let work_bits = work.len().trailing_zeros() as usize;
        let mut amps = vec![Complex::ZERO; work.len() << width];
        for (y, &amp) in work.iter().enumerate() {
            amps[y << width] = amp;
        }
        let mut state = StateVector::from_amplitudes(amps).unwrap();
        for q in 0..width {
            Gate::H(q).apply(&mut state).unwrap();
        }
        for j in 0..width {
            let a_pow = mod_pow(a, 1u64 << j, n);
            full_width_modmul(&mut state, j, width, work_bits, a_pow, n);
        }
        for gate in inverse_qft_circuit(width).unwrap().gates() {
            gate.apply(&mut state).unwrap();
        }
        let mut measurement = 0u64;
        for q in 0..width {
            if crate::state::naive::measure_qubit(&mut state, q, rng) {
                measurement |= 1 << q;
            }
        }
        measurement
    }

    /// Order finding over the whole register, as [`sweep_phase`] runs it
    /// from the work register `|1⟩`.
    fn sweep_order_finding<R: Rng>(a: u64, n: u64, rng: &mut R) -> u64 {
        let work_bits = bits_for(n);
        let counting_bits = (2 * work_bits).min(MAX_QUBITS - work_bits);
        let mut work = vec![Complex::ZERO; 1 << work_bits];
        work[1] = Complex::ONE;
        sweep_phase(a, n, counting_bits, &work, rng)
    }

    #[test]
    fn recycled_order_finding_measures_what_the_sweeps_measure() {
        // Every coprime base of 15, 21 and 33 (12, 15 and 18 qubits; orders
        // 2 to 10, and for the bases of order 2 or 4 a^(2^j) ≡ 1 from some
        // j on, so the later multiplications move nothing); 6 mod 35
        // (order 2); 2 and 12 mod 55 (orders 20 and 4).
        let mut cases: Vec<(u64, u64)> = [15u64, 21, 33]
            .into_iter()
            .flat_map(|n| (2..n).filter(move |&a| gcd(a, n) == 1).map(move |a| (a, n)))
            .collect();
        cases.extend([(6, 35), (2, 55), (12, 55)]);
        for (a, n) in cases {
            for seed in 0..2u64 {
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
    fn recycled_phase_estimation_measures_random_work_states_as_the_sweeps_do() {
        // Random normalised work registers, every amplitude nonzero (those
        // at y ≥ n too, which U_a leaves in place), so each qubit's two
        // outcomes both have weight and every earlier outcome's phase
        // shows.
        for (a, n) in [(7u64, 15u64), (2, 21), (4, 21), (8, 27)] {
            let work_bits = bits_for(n);
            for width in 1..=6 {
                for seed in 0..10u64 {
                    let mut work = crate::state::naive::scrambled(work_bits, seed);
                    crate::state::naive::normalize(&mut work);
                    let (mut fast_rng, mut slow_rng) = (rng_from_seed(seed), rng_from_seed(seed));
                    let measured =
                        estimate_phase(a, n, width, work.amplitudes().to_vec(), &mut fast_rng);
                    let expected = sweep_phase(a, n, width, work.amplitudes(), &mut slow_rng);
                    let context = format!("{a} mod {n}, width {width}, seed {seed}");
                    assert_eq!(measured, expected, "{context}");
                    assert_eq!(fast_rng.gen::<u64>(), slow_rng.gen::<u64>(), "{context}");
                }
            }
        }
    }

    /// The controlled multiplication on a register held block by block:
    /// `blocks[y]` holds the amplitudes of work value `y` (the counting
    /// register is the low qubits), empty for a block of zeros. The
    /// control-set amplitudes of block `y` move to block `a·y mod n`, so
    /// the blocks held after are those before and their images.
    fn block_modmul(blocks: &mut Vec<Vec<Complex>>, control: usize, a: u64, n: u64) {
        let len = blocks.iter().map(Vec::len).max().unwrap();
        let times = modmul_permutation(a, n, blocks.len().trailing_zeros() as usize);
        let old = std::mem::replace(blocks, vec![Vec::new(); times.len()]);
        for (y, block) in old.iter().enumerate().filter(|(_, b)| !b.is_empty()) {
            for (c, &amp) in block.iter().enumerate() {
                let to = if c >> control & 1 == 1 { times[y] } else { y };
                if blocks[to].is_empty() {
                    blocks[to] = vec![Complex::ZERO; len];
                }
                blocks[to][c] = amp;
            }
        }
    }

    /// Runs `gates`, which must all act on the `cell.n_qubits()` counting
    /// qubits, on every held block: each block is copied into `cell`, taken
    /// through the whole gate list while it sits in cache, and copied back.
    /// The leading swaps of `gates` (each exchanges qubits `q` and
    /// `width − 1 − q`) reverse the order of the counting bits: the copy
    /// into the cell performs them. With [`measure_low_register`], the
    /// coherent inverse QFT that the recycled control qubit is held to.
    fn run_in_cell(blocks: &mut [Vec<Complex>], cell: &mut StateVector, gates: &[Gate]) {
        let swaps = gates
            .iter()
            .take_while(|g| matches!(g, Gate::Swap(..)))
            .count();
        let width = cell.n_qubits();
        assert_eq!(swaps, width / 2, "the swaps reverse the counting bits");
        let shift = usize::BITS as usize - width;
        for block in blocks.iter_mut().filter(|b| !b.is_empty()) {
            for (c, amp) in cell.amps_mut().iter_mut().enumerate() {
                *amp = block[c.reverse_bits() >> shift];
            }
            for gate in &gates[swaps..] {
                gate.apply(cell).unwrap();
            }
            block.copy_from_slice(cell.amplitudes());
        }
    }

    /// Measures qubits `0..width` of the held blocks in order, as `width`
    /// calls of [`StateVector::measure_qubit`] on the whole register would:
    /// each qubit's reduction reads only the amplitudes the outcomes so far
    /// kept, and rescales them by the previous qubit's collapse first.
    fn measure_low_register<R: Rng>(blocks: &mut [Vec<Complex>], width: usize, rng: &mut R) -> u64 {
        let mut measurement = 0usize;
        let mut pending: Option<f64> = None;
        for q in 0..width {
            let (mut w0, mut w1) = (0.0, 0.0);
            for block in blocks.iter_mut() {
                // Kept amplitudes are `measurement + k·2^q`; bit `q` is `k`'s low bit.
                let kept = block.iter_mut().skip(measurement).step_by(1 << q);
                for (k, a) in kept.enumerate() {
                    if let Some(scale) = pending {
                        *a = a.scale(scale);
                    }
                    if k & 1 == 0 {
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
            pending = Some(collapse_scale(if outcome { w1 } else { w0 }));
        }
        measurement as u64
    }

    /// Order finding with the whole counting register and the coherent
    /// inverse QFT, on the blocks of the work values the orbit of `a`
    /// reaches: the Hadamards on a cell, the multiplications block by
    /// block, the inverse QFT's gates on each held block in the cell, then
    /// the measurement.
    fn cell_order_finding<R: Rng>(a: u64, n: u64, rng: &mut R) -> OrderFinding {
        let work_bits = bits_for(n);
        let counting_bits = (2 * work_bits).min(MAX_QUBITS - work_bits);
        let mut cell = StateVector::zero(counting_bits);
        for q in 0..counting_bits {
            Gate::H(q).apply(&mut cell).unwrap();
        }
        let mut blocks = vec![Vec::new(); 1 << work_bits];
        blocks[1] = cell.amplitudes().to_vec();
        for j in 0..counting_bits {
            block_modmul(&mut blocks, j, mod_pow(a, 1u64 << j, n), n);
        }
        let iqft = inverse_qft_circuit(counting_bits).unwrap();
        run_in_cell(&mut blocks, &mut cell, iqft.gates());
        let measurement = measure_low_register(&mut blocks, counting_bits, rng);
        OrderFinding {
            a,
            n,
            measurement,
            counting_bits,
            order: order_from_phase(a, n, measurement, counting_bits),
        }
    }

    #[test]
    fn semiclassical_order_finding_equals_the_coherent_inverse_qft() {
        // Every coprime base of 35, 39, 51 and 55: orders 1 to 20, so
        // orbits of 1 to 20 held blocks, and 12 counting qubits.
        for n in [35u64, 39, 51, 55] {
            for a in (2..n).filter(|&a| gcd(a, n) == 1) {
                for seed in 0..3u64 {
                    let (mut fast_rng, mut slow_rng) = (rng_from_seed(seed), rng_from_seed(seed));
                    let run = order_finding(a, n, &mut fast_rng).unwrap();
                    let want = cell_order_finding(a, n, &mut slow_rng);
                    assert_eq!(run, want, "{a} mod {n}, seed {seed}");
                    assert_eq!(fast_rng.gen::<u64>(), slow_rng.gen::<u64>());
                }
            }
        }
    }

    #[test]
    fn order_finding_rejects_common_factor() {
        let mut rng = rng_from_seed(1);
        assert!(order_finding(5, 15, &mut rng).is_err());
    }

    #[test]
    fn order_finding_refuses_a_modulus_past_max_n() {
        // 4 097 = 17 · 241 needs 13 work qubits and would get 11 counting
        // qubits; base 3 is coprime to it.
        let mut rng = rng_from_seed(1);
        assert!(matches!(
            order_finding(3, MAX_N + 2, &mut rng),
            Err(QuantumError::Algorithm { .. })
        ));
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

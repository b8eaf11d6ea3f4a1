//! Modular-arithmetic unitaries for order finding.
//!
//! Shor's algorithm needs controlled `U_a` gates where
//! `U_a |y⟩ = |a·y mod N⟩` on the work register (and identity for
//! `y ≥ N`). These are basis-state permutations, so the simulator applies
//! them directly as permutations instead of decomposing into elementary
//! gates — exactly the freedom a state-vector backend provides.
//!
//! The controlled form never materializes the `2^n`-entry permutation of
//! the whole register: for a control qubit in the counting register it
//! moves the control-set runs of each work-register value along the cycles
//! of the `2^work_bits`-entry work permutation, in place, through one
//! block-sized carry buffer (`ModmulScratch`) that a phase-estimation
//! loop allocates once.

use crate::numtheory::gcd;
use crate::state::StateVector;
use crate::QuantumError;
use numerics::Complex;

/// Fills `perm` with the permutation of a `work_bits`-wide register
/// implementing `y ↦ a·y mod n` for `y < n` (identity elsewhere).
///
/// # Errors
///
/// Returns [`QuantumError::Algorithm`] when `gcd(a, n) != 1` (the map would
/// not be a bijection) or `n` does not fit in `work_bits`.
fn fill_modmul_permutation(
    a: u64,
    n: u64,
    work_bits: usize,
    perm: &mut Vec<usize>,
) -> Result<(), QuantumError> {
    if n == 0 || (n as u128) > (1u128 << work_bits) {
        return Err(QuantumError::Algorithm {
            reason: format!("modulus {n} does not fit in {work_bits} bits"),
        });
    }
    if gcd(a % n, n) != 1 {
        return Err(QuantumError::Algorithm {
            reason: format!("gcd({a}, {n}) != 1: modular multiplication is not invertible"),
        });
    }
    perm.clear();
    perm.extend((0..1usize << work_bits).map(|y| {
        if (y as u64) < n {
            ((a % n) * (y as u64) % n) as usize
        } else {
            y
        }
    }));
    Ok(())
}

/// Buffers [`apply_controlled_modmul_with`] reuses from call to call: the
/// work-register permutation, one flag per work value, and the carry block.
#[derive(Debug, Default)]
pub(crate) struct ModmulScratch {
    perm: Vec<usize>,
    flags: Vec<bool>,
    carry: Vec<Complex>,
}

/// Applies the controlled modular multiplication
/// `|c⟩|y⟩ → |c⟩|a^c · y mod n⟩` to a combined state whose low
/// `counting_bits` qubits are the counting register and whose next
/// `work_bits` qubits are the work register. `control` indexes into the
/// counting register; `scratch` is reused from call to call.
///
/// The amplitudes of one work value `y` and all counting values form one
/// contiguous block of `2^counting_bits`; inside it the counting values
/// with the control bit set are runs of `2^control`. Each cycle
/// `y₀ → y₁ → … → y₀` of the work permutation is rotated by carrying the
/// control-set runs of `y₀` forward: swap the carry into `y₁`'s runs, then
/// `y₂`'s, … and finally back into `y₀`'s.
pub(crate) fn apply_controlled_modmul_with(
    state: &mut StateVector,
    control: usize,
    counting_bits: usize,
    work_bits: usize,
    a: u64,
    n: u64,
    scratch: &mut ModmulScratch,
) -> Result<(), QuantumError> {
    if counting_bits + work_bits > state.n_qubits() || control >= counting_bits {
        return Err(QuantumError::QubitOutOfRange {
            qubit: control.max(counting_bits + work_bits),
            n_qubits: state.n_qubits(),
        });
    }
    let ModmulScratch { perm, flags, carry } = scratch;
    fill_modmul_permutation(a, n, work_bits, perm)?;
    // The work permutation must be a bijection — every target hit once —
    // or the cycle walk below would drop amplitudes.
    flags.clear();
    flags.resize(perm.len(), false);
    for &p in perm.iter() {
        if p >= perm.len() || flags[p] {
            return Err(QuantumError::BadAmplitudes {
                reason: "not a permutation",
            });
        }
        flags[p] = true;
    }
    let block = 1usize << counting_bits;
    let run = 1usize << control;
    carry.resize(block, Complex::ZERO);
    let amps = state.amps_mut();
    // Registers above the work register (none in order finding) repeat the
    // same layout once per value.
    for upper in amps.chunks_exact_mut(block << work_bits) {
        // `flags[y]` is now "y's block still holds its old amplitudes".
        for start in 0..perm.len() {
            if !flags[start] || perm[start] == start {
                continue;
            }
            let first = &upper[start * block..(start + 1) * block];
            for (kept, old) in carry
                .chunks_exact_mut(run << 1)
                .zip(first.chunks_exact(run << 1))
            {
                kept[run..].copy_from_slice(&old[run..]);
            }
            let mut y = start;
            loop {
                y = perm[y];
                flags[y] = false;
                let target = &mut upper[y * block..(y + 1) * block];
                for (kept, new) in carry
                    .chunks_exact_mut(run << 1)
                    .zip(target.chunks_exact_mut(run << 1))
                {
                    kept[run..].swap_with_slice(&mut new[run..]);
                }
                if y == start {
                    break;
                }
            }
        }
        flags.fill(true);
    }
    Ok(())
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::state::naive::basis;

    fn modmul_permutation(a: u64, n: u64, work_bits: usize) -> Result<Vec<usize>, QuantumError> {
        let mut perm = Vec::new();
        fill_modmul_permutation(a, n, work_bits, &mut perm)?;
        Ok(perm)
    }

    #[test]
    fn permutation_is_bijection() {
        let perm = modmul_permutation(7, 15, 4).unwrap();
        let mut sorted = perm.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn permutation_matches_modular_multiplication() {
        let perm = modmul_permutation(4, 15, 4).unwrap();
        for y in 0..15usize {
            assert_eq!(perm[y], 4 * y % 15);
        }
    }

    #[test]
    fn non_coprime_rejected() {
        assert!(modmul_permutation(3, 15, 4).is_err());
        assert!(modmul_permutation(5, 15, 4).is_err());
    }

    #[test]
    fn modulus_must_fit() {
        assert!(modmul_permutation(2, 17, 4).is_err());
        assert!(modmul_permutation(3, 16, 4).is_ok());
    }

    #[test]
    fn controlled_modmul_acts_only_when_control_set() {
        // 2 counting bits + 4 work bits.
        let mut scratch = ModmulScratch::default();
        let counting = 2;
        let work = 4;
        // Work register starts at |3⟩, counting at |01⟩ (control 0 set).
        let idx = (3usize << counting) | 0b01;
        let mut s = basis(counting + work, idx);
        apply_controlled_modmul_with(&mut s, 0, counting, work, 7, 15, &mut scratch).unwrap();
        let expected = ((7 * 3 % 15) << counting) | 0b01;
        assert_eq!(s.probability(expected).unwrap(), 1.0);

        // Control clear → untouched.
        let idx = (3usize << counting) | 0b10;
        let mut s = basis(counting + work, idx);
        apply_controlled_modmul_with(&mut s, 0, counting, work, 7, 15, &mut scratch).unwrap();
        assert_eq!(s.probability(idx).unwrap(), 1.0);
    }

    /// The controlled multiplication as one `2^n`-entry permutation of the
    /// whole register: the amplitude of `|i⟩` moves to `|π(i)⟩`.
    pub(crate) fn full_width_modmul(
        state: &mut StateVector,
        control: usize,
        counting_bits: usize,
        work_bits: usize,
        a: u64,
        n: u64,
    ) {
        let work_perm = modmul_permutation(a, n, work_bits).unwrap();
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

    #[test]
    fn in_place_cycles_equal_the_full_width_permutation() {
        let mut scratch = ModmulScratch::default();
        for (n, work) in [(15u64, 4usize), (21, 5), (35, 6)] {
            let counting = 3;
            for a in (2..n).filter(|&a| gcd(a, n) == 1) {
                // One spare qubit above the work register on odd bases.
                let total = counting + work + (a % 2) as usize;
                let mut fast = crate::state::naive::scrambled(total, a);
                let mut slow = fast.clone();
                for control in 0..counting {
                    apply_controlled_modmul_with(
                        &mut fast,
                        control,
                        counting,
                        work,
                        a,
                        n,
                        &mut scratch,
                    )
                    .unwrap();
                    full_width_modmul(&mut slow, control, counting, work, a, n);
                    assert_eq!(fast, slow, "{a} mod {n}, control {control}");
                }
            }
        }
    }

    #[test]
    fn repeated_application_cycles_with_order() {
        // Order of 2 mod 15 is 4: applying controlled-U_2 four times with
        // the control set returns the work register to its start.
        let counting = 1;
        let work = 4;
        let start = (1usize << counting) | 1; // work=1, control set
        let mut scratch = ModmulScratch::default();
        let mut s = basis(counting + work, start);
        for _ in 0..4 {
            apply_controlled_modmul_with(&mut s, 0, counting, work, 2, 15, &mut scratch).unwrap();
        }
        assert_eq!(s.probability(start).unwrap(), 1.0);
    }

    #[test]
    fn bad_register_geometry_rejected() {
        let mut s = StateVector::zero(4);
        let mut scratch = ModmulScratch::default();
        assert!(apply_controlled_modmul_with(&mut s, 0, 2, 4, 7, 15, &mut scratch).is_err());
        assert!(apply_controlled_modmul_with(&mut s, 2, 2, 2, 3, 4, &mut scratch).is_err());
    }
}

//! Modular-arithmetic unitaries for order finding.
//!
//! Shor's algorithm needs controlled `U_a` gates where
//! `U_a |y⟩ = |a·y mod N⟩` on the work register (and identity for
//! `y ≥ N`). These are basis-state permutations, so the simulator applies
//! them directly as permutations instead of decomposing into elementary
//! gates — exactly the freedom a state-vector backend provides.
//!
//! The controlled form acts on a register held as one block of
//! `2^counting_bits` amplitudes per work value, and only on the blocks
//! held: order finding starts the work register at `|1⟩`, so the only
//! blocks that ever hold an amplitude are those of the orbit of `a`. For a
//! control qubit in the counting register the multiplication moves the
//! control-set runs of each held block to the block of `a·y`, through one
//! block-sized carry buffer (`ModmulScratch`) that a phase-estimation loop
//! allocates once.

use crate::numtheory::gcd;
use crate::QuantumError;
use numerics::Complex;

/// A block of `len` zero amplitudes, or an error when there is no memory
/// for it.
pub(crate) fn zero_block(len: usize) -> Result<Vec<Complex>, QuantumError> {
    let mut block = Vec::new();
    block
        .try_reserve_exact(len)
        .map_err(|_| QuantumError::Algorithm {
            reason: format!("no memory for a block of {len} amplitudes"),
        })?;
    block.resize(len, Complex::ZERO);
    Ok(block)
}

/// Buffers [`controlled_modmul`] reuses from call to call: one flag per
/// work value for "has a held preimage" and for "moved", the work values
/// of one chain or cycle, and the carry block.
#[derive(Debug, Default)]
pub(crate) struct ModmulScratch {
    preimage: Vec<bool>,
    moved: Vec<bool>,
    path: Vec<usize>,
    carry: Vec<Complex>,
}

/// Applies the controlled modular multiplication
/// `|c⟩|y⟩ → |c⟩|a^c · y mod n⟩` to a register held block by block:
/// `blocks[y]` holds the `2^counting_bits` amplitudes of work value `y`
/// (the counting register is the low qubits), and an empty `blocks[y]`
/// stands for a block of zeros. `control` indexes into the counting
/// register; `scratch` is reused from call to call.
///
/// Inside a block the counting values with the control bit set are runs of
/// `2^control`; they move from block `y` to block `a·y`, and every other
/// amplitude stays. So the held blocks after the call are those before and
/// their images, and a block whose preimage is not held receives zeros.
/// The moves follow `y → a·y` along chains and cycles. A chain runs from
/// its start (a held block without a held preimage, whose runs become
/// zeros) to its first block not held before, which is allocated here;
/// every other block that moves lies on a cycle of held blocks.
///
/// # Errors
///
/// * [`QuantumError::QubitOutOfRange`] when `control` is not a counting
///   qubit.
/// * [`QuantumError::Algorithm`] when `gcd(a, n) != 1` (the map would not
///   be a bijection), `n` does not fit in the work register, or a block
///   cannot be allocated.
pub(crate) fn controlled_modmul(
    blocks: &mut [Vec<Complex>],
    control: usize,
    counting_bits: usize,
    a: u64,
    n: u64,
    scratch: &mut ModmulScratch,
) -> Result<(), QuantumError> {
    if control >= counting_bits {
        return Err(QuantumError::QubitOutOfRange {
            qubit: control,
            n_qubits: counting_bits,
        });
    }
    if n == 0 || n as u128 > blocks.len() as u128 {
        return Err(QuantumError::Algorithm {
            reason: format!(
                "modulus {n} does not fit in a {}-value register",
                blocks.len()
            ),
        });
    }
    if gcd(a % n, n) != 1 {
        return Err(QuantumError::Algorithm {
            reason: format!("gcd({a}, {n}) != 1: modular multiplication is not invertible"),
        });
    }
    let times = |y: usize| {
        if (y as u64) < n {
            ((a % n) * (y as u64) % n) as usize
        } else {
            y
        }
    };
    let len = 1usize << counting_bits;
    let run = 1usize << control;
    let ModmulScratch {
        preimage,
        moved,
        path,
        carry,
    } = scratch;
    carry.resize(len, Complex::ZERO);
    preimage.clear();
    preimage.resize(blocks.len(), false);
    moved.clear();
    moved.resize(blocks.len(), false);
    for y in (0..blocks.len()).filter(|&y| !blocks[y].is_empty()) {
        preimage[times(y)] = true;
    }
    // Chain starts first; every held block they leave unmoved lies on a
    // cycle of held blocks (or is a fixed point, which stays). Each chain
    // or cycle is listed forward, then its runs move backward along it, so
    // each is read and written once; the carry takes the last block's runs
    // (a fresh block's zeros, for a chain) round to the first.
    for chain_starts in [true, false] {
        for start in 0..blocks.len() {
            let held = !blocks[start].is_empty();
            if !held || moved[start] || times(start) == start || preimage[start] == chain_starts {
                continue;
            }
            path.clear();
            path.push(start);
            let mut y = times(start);
            while y != start {
                path.push(y);
                if blocks[y].is_empty() {
                    blocks[y] = zero_block(len)?;
                    break;
                }
                y = times(y);
            }
            copy_runs(&blocks[path[path.len() - 1]], carry, run);
            for step in path.windows(2).rev() {
                let mut to = std::mem::take(&mut blocks[step[1]]);
                copy_runs(&blocks[step[0]], &mut to, run);
                blocks[step[1]] = to;
            }
            copy_runs(carry, &mut blocks[start], run);
            for &y in path.iter() {
                moved[y] = true;
            }
        }
    }
    Ok(())
}

/// Copies the control-set runs (the upper `run` of every `2·run`) of
/// `from` over those of `to`.
fn copy_runs(from: &[Complex], to: &mut [Complex], run: usize) {
    let pairs = to
        .chunks_exact_mut(run << 1)
        .zip(from.chunks_exact(run << 1));
    if run < 8 {
        // A `copy_from_slice` call per run of 1–4 amplitudes costs more
        // than the copy.
        for (to, from) in pairs {
            for (to, from) in to[run..].iter_mut().zip(&from[run..]) {
                *to = *from;
            }
        }
    } else {
        for (to, from) in pairs {
            to[run..].copy_from_slice(&from[run..]);
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::state::StateVector;

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

    /// The blocks `held` of a scrambled dense state over `counting` +
    /// `work` qubits, every other block zeroed: the dense state and the
    /// same register held block by block.
    fn held_register(
        counting: usize,
        work: usize,
        held: &[usize],
        seed: u64,
    ) -> (StateVector, Vec<Vec<Complex>>) {
        let len = 1usize << counting;
        let mut dense = crate::state::naive::scrambled(counting + work, seed);
        let mut blocks = vec![Vec::new(); 1 << work];
        for (y, block) in dense.amps_mut().chunks_exact_mut(len).enumerate() {
            if held.contains(&y) {
                blocks[y] = block.to_vec();
            } else {
                block.fill(Complex::ZERO);
            }
        }
        (dense, blocks)
    }

    /// Every held block equals the dense state's, and every block not held
    /// is zero there.
    fn assert_same_register(dense: &StateVector, blocks: &[Vec<Complex>], context: &str) {
        let len = dense.dim() / blocks.len();
        for (y, (want, got)) in dense.amplitudes().chunks_exact(len).zip(blocks).enumerate() {
            if got.is_empty() {
                assert!(want.iter().all(|a| *a == Complex::ZERO), "{context}: y={y}");
            } else {
                assert_eq!(want, got.as_slice(), "{context}: y={y}");
            }
        }
    }

    #[test]
    fn held_blocks_move_as_the_full_width_permutation_moves_them() {
        let mut scratch = ModmulScratch::default();
        let counting = 3;
        // (a, n, work bits, held blocks): the full 4-cycle of 2 mod 15; a
        // chain 1 → 2 → 4 whose start has no held preimage; two chains and
        // a fixed point outside the units (y ≥ n); the 3-cycle of 4 mod 21
        // beside the chain 2 → 8 → 11; two 2-cycles of −1 mod 35.
        let cases: [(u64, u64, usize, &[usize]); 5] = [
            (2, 15, 4, &[1, 2, 4, 8]),
            (2, 15, 4, &[1, 2]),
            (7, 15, 4, &[1, 4, 15]),
            (4, 21, 5, &[1, 4, 16, 2, 8]),
            (34, 35, 6, &[1, 34, 6, 29]),
        ];
        for (a, n, work, held) in cases {
            for control in 0..counting {
                let (mut dense, mut blocks) = held_register(counting, work, held, a + n);
                controlled_modmul(&mut blocks, control, counting, a, n, &mut scratch).unwrap();
                full_width_modmul(&mut dense, control, counting, work, a, n);
                let context = format!("{a} mod {n}, held {held:?}, control {control}");
                assert_same_register(&dense, &blocks, &context);
                // Held after: the blocks held before and their images.
                let times = |y: usize| modmul_permutation(a, n, work)[y];
                for (y, block) in blocks.iter().enumerate() {
                    let reached = held.contains(&y) || held.iter().any(|&x| times(x) == y);
                    assert_eq!(!block.is_empty(), reached, "{context}: y={y}");
                }
            }
        }
    }

    #[test]
    fn every_coprime_base_moves_the_orbit_as_the_full_width_permutation() {
        let mut scratch = ModmulScratch::default();
        let counting = 3;
        for (n, work) in [(15u64, 4usize), (21, 5), (35, 6)] {
            for a in (2..n).filter(|&a| gcd(a, n) == 1) {
                // From |1⟩, as order finding starts, through every control.
                let (mut dense, mut blocks) = held_register(counting, work, &[1], a);
                for control in 0..counting {
                    let b = crate::numtheory::mod_pow(a, 1 << control, n);
                    controlled_modmul(&mut blocks, control, counting, b, n, &mut scratch).unwrap();
                    full_width_modmul(&mut dense, control, counting, work, b, n);
                    assert_same_register(&dense, &blocks, &format!("{a} mod {n}, {control}"));
                }
            }
        }
    }

    #[test]
    fn controlled_modmul_acts_only_when_control_set() {
        // 2 counting bits + 4 work bits; the work register at |3⟩.
        let mut scratch = ModmulScratch::default();
        let mut blocks = vec![Vec::new(); 16];
        blocks[3] = zero_block(4).unwrap();
        blocks[3][0b01] = Complex::ONE;
        blocks[3][0b10] = Complex::I;
        controlled_modmul(&mut blocks, 0, 2, 7, 15, &mut scratch).unwrap();
        // Control 0 set: |01⟩ moved to work value 7·3 mod 15 = 6.
        assert_eq!(blocks[6][0b01], Complex::ONE);
        assert_eq!(blocks[3][0b01], Complex::ZERO);
        // Control clear: |10⟩ untouched.
        assert_eq!(blocks[3][0b10], Complex::I);
        assert_eq!(blocks[6][0b10], Complex::ZERO);
    }

    #[test]
    fn repeated_application_cycles_with_order() {
        // Order of 2 mod 15 is 4: applying controlled-U_2 four times with
        // the control set returns the work register to its start.
        let mut scratch = ModmulScratch::default();
        let mut blocks = vec![Vec::new(); 16];
        blocks[1] = vec![Complex::ZERO, Complex::ONE];
        for _ in 0..4 {
            controlled_modmul(&mut blocks, 0, 1, 2, 15, &mut scratch).unwrap();
        }
        assert_eq!(blocks[1][1], Complex::ONE);
        for y in [2, 4, 8] {
            assert_eq!(blocks[y], [Complex::ZERO; 2]);
        }
    }

    #[test]
    fn bad_geometry_and_non_coprime_bases_rejected() {
        let mut scratch = ModmulScratch::default();
        let mut blocks = vec![Vec::new(); 16];
        assert!(controlled_modmul(&mut blocks, 2, 2, 7, 15, &mut scratch).is_err());
        assert!(controlled_modmul(&mut blocks, 0, 2, 2, 17, &mut scratch).is_err());
        assert!(controlled_modmul(&mut blocks, 0, 2, 3, 15, &mut scratch).is_err());
        assert!(controlled_modmul(&mut blocks, 0, 2, 5, 15, &mut scratch).is_err());
        assert!(controlled_modmul(&mut blocks, 0, 2, 3, 16, &mut scratch).is_ok());
    }
}

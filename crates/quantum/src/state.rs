//! Exact state-vector simulation.
//!
//! [`StateVector`] holds the `2^n` complex amplitudes of an `n`-qubit
//! register. Qubit 0 is the least-significant bit of the basis index.
//! Single-qubit and controlled gates are applied in place with the standard
//! stride walk; measurement collapses the state.
//!
//! # Diagonal gates and the sign of zero
//!
//! For a matrix of the form `diag(1, p)` (phase, S, T, Z and their
//! controlled forms) the general stride walk would compute `1·a₀ + 0·a₁`
//! and `0·a₀ + p·a₁`; [`StateVector::apply_single`] and
//! [`StateVector::apply_controlled`] leave `a₀` alone and compute `p·a₁`
//! instead, visiting only the amplitudes the gate changes. For finite
//! amplitudes the two agree in every bit except the sign of a zero
//! component (`x + 0·y` is `x`, but `-0.0 + 0.0` is `+0.0`), which no
//! probability, comparison or measurement can observe: `-0.0 == 0.0`, and
//! both square to `+0.0`.
//!
//! # Example
//!
//! ```
//! use quantum::state::StateVector;
//! use quantum::gate::matrices;
//!
//! let mut state = StateVector::zero(1);
//! state.apply_single(0, &matrices::HADAMARD)?;
//! assert!((state.probability(0)? - 0.5).abs() < 1e-12);
//! # Ok::<(), quantum::QuantumError>(())
//! ```

use crate::{QuantumError, MAX_QUBITS};
use numerics::rng::Rng;
use numerics::Complex;

/// A 2×2 complex matrix in row-major order.
pub(crate) type Matrix2 = [[Complex; 2]; 2];

/// `Some(p)` when `m` is `diag(1, p)` (see the module docs for what the
/// gate kernels do with it).
fn unit_diagonal(m: &Matrix2) -> Option<Complex> {
    (m[0][0] == Complex::ONE && m[0][1] == Complex::ZERO && m[1][0] == Complex::ZERO)
        .then_some(m[1][1])
}

/// The factor that renormalizes a measured branch of squared norm
/// `kept_weight`: `1/√weight`, or 1 (leave the amplitudes alone) for a
/// branch of no weight.
pub(crate) fn collapse_scale(kept_weight: f64) -> f64 {
    let norm = kept_weight.sqrt();
    if norm > 0.0 {
        1.0 / norm
    } else {
        1.0
    }
}

/// The quantum state of an `n`-qubit register.
#[derive(Debug, Clone, PartialEq)]
pub struct StateVector {
    n_qubits: usize,
    amps: Vec<Complex>,
}

impl StateVector {
    /// The all-zeros computational basis state `|0…0⟩`.
    ///
    /// # Panics
    ///
    /// Panics when `n_qubits` is 0 or exceeds [`MAX_QUBITS`]; use
    /// `StateVector::try_zero` for a fallible constructor.
    #[must_use]
    pub fn zero(n_qubits: usize) -> Self {
        Self::try_zero(n_qubits).expect("invalid register width")
    }

    /// Fallible form of [`StateVector::zero`].
    ///
    /// # Errors
    ///
    /// Returns [`QuantumError::BadRegisterWidth`] outside `1..=MAX_QUBITS`.
    pub(crate) fn try_zero(n_qubits: usize) -> Result<Self, QuantumError> {
        if n_qubits == 0 || n_qubits > MAX_QUBITS {
            return Err(QuantumError::BadRegisterWidth { n_qubits });
        }
        let mut amps = vec![Complex::ZERO; 1 << n_qubits];
        amps[0] = Complex::ONE;
        Ok(StateVector { n_qubits, amps })
    }

    /// Builds a state from raw amplitudes, normalizing them.
    ///
    /// # Errors
    ///
    /// Returns [`QuantumError::BadAmplitudes`] when the length is not a
    /// power of two ≥ 2, or the vector has zero norm or non-finite entries.
    pub(crate) fn from_amplitudes(amps: Vec<Complex>) -> Result<Self, QuantumError> {
        let len = amps.len();
        if len < 2 || !len.is_power_of_two() {
            return Err(QuantumError::BadAmplitudes {
                reason: "length must be a power of two >= 2",
            });
        }
        if amps.iter().any(|a| !a.is_finite()) {
            return Err(QuantumError::BadAmplitudes {
                reason: "non-finite amplitude",
            });
        }
        let norm_sqr: f64 = amps.iter().map(|a| a.norm_sqr()).sum();
        if norm_sqr <= 0.0 {
            return Err(QuantumError::BadAmplitudes {
                reason: "zero norm",
            });
        }
        let scale = 1.0 / norm_sqr.sqrt();
        let n_qubits = len.trailing_zeros() as usize;
        if n_qubits > MAX_QUBITS {
            return Err(QuantumError::BadRegisterWidth { n_qubits });
        }
        Ok(StateVector {
            n_qubits,
            amps: amps.into_iter().map(|a| a.scale(scale)).collect(),
        })
    }

    /// Register width.
    #[must_use]
    pub(crate) fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    /// State dimension `2^n`.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.amps.len()
    }

    /// The raw amplitudes, basis-ordered.
    #[must_use]
    pub(crate) fn amplitudes(&self) -> &[Complex] {
        &self.amps
    }

    /// The raw amplitudes, for the in-crate algorithms that move or rescale
    /// them block by block with scratch of their own (order finding, the
    /// Grover reflections). Unitarity is the caller's business.
    pub(crate) fn amps_mut(&mut self) -> &mut [Complex] {
        &mut self.amps
    }

    /// The amplitude of basis state `index`.
    ///
    /// # Errors
    ///
    /// Returns [`QuantumError::BasisOutOfRange`] when out of range.
    pub(crate) fn amplitude(&self, index: usize) -> Result<Complex, QuantumError> {
        self.amps
            .get(index)
            .copied()
            .ok_or(QuantumError::BasisOutOfRange {
                basis: index,
                dim: self.amps.len(),
            })
    }

    /// The probability of measuring basis state `index`.
    ///
    /// # Errors
    ///
    /// Returns [`QuantumError::BasisOutOfRange`] when out of range.
    pub fn probability(&self, index: usize) -> Result<f64, QuantumError> {
        Ok(self.amplitude(index)?.norm_sqr())
    }

    /// Total norm (should stay 1 under unitary evolution).
    #[must_use]
    pub fn norm(&self) -> f64 {
        self.amps.iter().map(|a| a.norm_sqr()).sum::<f64>().sqrt()
    }

    fn check_qubit(&self, q: usize) -> Result<(), QuantumError> {
        if q >= self.n_qubits {
            return Err(QuantumError::QubitOutOfRange {
                qubit: q,
                n_qubits: self.n_qubits,
            });
        }
        Ok(())
    }

    /// Applies a single-qubit unitary to qubit `q`.
    ///
    /// # Errors
    ///
    /// Returns [`QuantumError::QubitOutOfRange`] for a bad index.
    pub fn apply_single(&mut self, q: usize, m: &Matrix2) -> Result<(), QuantumError> {
        self.check_qubit(q)?;
        let stride = 1usize << q;
        if let Some(p) = unit_diagonal(m) {
            for pair in self.amps.chunks_exact_mut(stride << 1) {
                for a in &mut pair[stride..] {
                    *a = p * *a;
                }
            }
            return Ok(());
        }
        let dim = self.amps.len();
        let mut base = 0usize;
        while base < dim {
            for offset in base..base + stride {
                let i0 = offset;
                let i1 = offset + stride;
                let a0 = self.amps[i0];
                let a1 = self.amps[i1];
                self.amps[i0] = m[0][0] * a0 + m[0][1] * a1;
                self.amps[i1] = m[1][0] * a0 + m[1][1] * a1;
            }
            base += stride << 1;
        }
        Ok(())
    }

    /// Applies a single-qubit unitary to qubit `target`, controlled on
    /// `control` being `|1⟩`.
    ///
    /// # Errors
    ///
    /// * [`QuantumError::QubitOutOfRange`] for bad indices.
    /// * [`QuantumError::DuplicateQubits`] when `control == target`.
    pub fn apply_controlled(
        &mut self,
        control: usize,
        target: usize,
        m: &Matrix2,
    ) -> Result<(), QuantumError> {
        self.check_qubit(control)?;
        self.check_qubit(target)?;
        if control == target {
            return Err(QuantumError::DuplicateQubits);
        }
        if let Some(p) = unit_diagonal(m) {
            // Only amplitudes with both bits set change, so control and
            // target are interchangeable: walk the upper half of every
            // high-qubit pair, and inside it the upper halves of the
            // low-qubit pairs.
            let low = 1usize << control.min(target);
            let high = 1usize << control.max(target);
            for pair in self.amps.chunks_exact_mut(high << 1) {
                for inner in pair[high..].chunks_exact_mut(low << 1) {
                    for a in &mut inner[low..] {
                        *a = p * *a;
                    }
                }
            }
            return Ok(());
        }
        let t_stride = 1usize << target;
        let c_mask = 1usize << control;
        let dim = self.amps.len();
        let mut base = 0usize;
        while base < dim {
            for offset in base..base + t_stride {
                if offset & c_mask == 0 {
                    continue;
                }
                let i0 = offset;
                let i1 = offset + t_stride;
                let a0 = self.amps[i0];
                let a1 = self.amps[i1];
                self.amps[i0] = m[0][0] * a0 + m[0][1] * a1;
                self.amps[i1] = m[1][0] * a0 + m[1][1] * a1;
            }
            base += t_stride << 1;
        }
        Ok(())
    }

    /// Applies a doubly-controlled single-qubit unitary (for Toffoli).
    ///
    /// # Errors
    ///
    /// Same conditions as [`StateVector::apply_controlled`].
    pub(crate) fn apply_controlled2(
        &mut self,
        c1: usize,
        c2: usize,
        target: usize,
        m: &Matrix2,
    ) -> Result<(), QuantumError> {
        self.check_qubit(c1)?;
        self.check_qubit(c2)?;
        self.check_qubit(target)?;
        if c1 == c2 || c1 == target || c2 == target {
            return Err(QuantumError::DuplicateQubits);
        }
        let t_stride = 1usize << target;
        let mask = (1usize << c1) | (1usize << c2);
        let dim = self.amps.len();
        let mut base = 0usize;
        while base < dim {
            for offset in base..base + t_stride {
                if offset & mask != mask {
                    continue;
                }
                let i0 = offset;
                let i1 = offset + t_stride;
                let a0 = self.amps[i0];
                let a1 = self.amps[i1];
                self.amps[i0] = m[0][0] * a0 + m[0][1] * a1;
                self.amps[i1] = m[1][0] * a0 + m[1][1] * a1;
            }
            base += t_stride << 1;
        }
        Ok(())
    }

    /// Swaps qubits `a` and `b`.
    ///
    /// # Errors
    ///
    /// * [`QuantumError::QubitOutOfRange`] for bad indices.
    /// * [`QuantumError::DuplicateQubits`] when `a == b`.
    pub(crate) fn apply_swap(&mut self, a: usize, b: usize) -> Result<(), QuantumError> {
        self.check_qubit(a)?;
        self.check_qubit(b)?;
        if a == b {
            return Err(QuantumError::DuplicateQubits);
        }
        let ma = 1usize << a;
        let mb = 1usize << b;
        for i in 0..self.amps.len() {
            let bit_a = (i & ma) != 0;
            let bit_b = (i & mb) != 0;
            if bit_a && !bit_b {
                let j = (i & !ma) | mb;
                self.amps.swap(i, j);
            }
        }
        Ok(())
    }

    /// Probability that qubit `q` measures as `|1⟩`.
    ///
    /// # Errors
    ///
    /// Returns [`QuantumError::QubitOutOfRange`] for a bad index.
    pub(crate) fn prob_one(&self, q: usize) -> Result<f64, QuantumError> {
        self.check_qubit(q)?;
        let stride = 1usize << q;
        let mut p1 = 0.0;
        for pair in self.amps.chunks_exact(stride << 1) {
            for a in &pair[stride..] {
                p1 += a.norm_sqr();
            }
        }
        Ok(p1)
    }

    /// Measures qubit `q`, collapsing the state. Returns the outcome.
    ///
    /// Two sweeps: the first sums both branch weights in index order, the
    /// second zeroes the branch not taken and rescales the other. The kept
    /// branch's weight *is* the collapsed state's squared norm — summing
    /// the zeroed half's `+0.0` terms along with it changes no partial sum
    /// — so no third sweep recomputes it.
    ///
    /// # Errors
    ///
    /// Returns [`QuantumError::QubitOutOfRange`] for a bad index.
    pub(crate) fn measure_qubit<R: Rng>(
        &mut self,
        q: usize,
        rng: &mut R,
    ) -> Result<bool, QuantumError> {
        self.check_qubit(q)?;
        let stride = 1usize << q;
        let (mut w0, mut w1) = (0.0, 0.0);
        for pair in self.amps.chunks_exact(stride << 1) {
            let (zeros, ones) = pair.split_at(stride);
            for a in zeros {
                w0 += a.norm_sqr();
            }
            for a in ones {
                w1 += a.norm_sqr();
            }
        }
        let outcome = rng.gen::<f64>() < w1;
        let scale = collapse_scale(if outcome { w1 } else { w0 });
        for pair in self.amps.chunks_exact_mut(stride << 1) {
            let (zeros, ones) = pair.split_at_mut(stride);
            let (kept, dropped) = if outcome {
                (ones, zeros)
            } else {
                (zeros, ones)
            };
            dropped.fill(Complex::ZERO);
            for a in kept {
                *a = a.scale(scale);
            }
        }
        Ok(outcome)
    }

    /// Measures the full register, collapsing to a basis state. Returns the
    /// basis index.
    pub(crate) fn measure_all<R: Rng>(&mut self, rng: &mut R) -> usize {
        let r: f64 = rng.gen();
        let mut acc = 0.0;
        let mut outcome = self.amps.len() - 1;
        for (i, a) in self.amps.iter().enumerate() {
            acc += a.norm_sqr();
            if r < acc {
                outcome = i;
                break;
            }
        }
        for (i, a) in self.amps.iter_mut().enumerate() {
            *a = if i == outcome {
                Complex::ONE
            } else {
                Complex::ZERO
            };
        }
        outcome
    }

    /// The inner product `⟨self|other⟩`.
    ///
    /// # Errors
    ///
    /// Returns [`QuantumError::BadRegisterWidth`] on width mismatch.
    pub(crate) fn overlap(&self, other: &StateVector) -> Result<Complex, QuantumError> {
        if self.n_qubits != other.n_qubits {
            return Err(QuantumError::BadRegisterWidth {
                n_qubits: other.n_qubits,
            });
        }
        Ok(self
            .amps
            .iter()
            .zip(&other.amps)
            .map(|(a, b)| a.conj() * *b)
            .sum())
    }

    /// The tensor product `self ⊗ other` (`other`'s qubits become the
    /// low-order qubits of the result).
    ///
    /// # Errors
    ///
    /// Returns [`QuantumError::BadRegisterWidth`] when the combined width
    /// exceeds [`MAX_QUBITS`].
    pub(crate) fn tensor(&self, other: &StateVector) -> Result<StateVector, QuantumError> {
        let n = self.n_qubits + other.n_qubits;
        if n > MAX_QUBITS {
            return Err(QuantumError::BadRegisterWidth { n_qubits: n });
        }
        let mut amps = vec![Complex::ZERO; 1 << n];
        for (i, a) in self.amps.iter().enumerate() {
            for (j, b) in other.amps.iter().enumerate() {
                amps[(i << other.n_qubits) | j] = *a * *b;
            }
        }
        Ok(StateVector { n_qubits: n, amps })
    }
}

/// The gate and measurement kernels as they were before the diagonal fast
/// path and the two-sweep measurement: index loops over the whole register
/// that treat every matrix alike. The tests of this crate hold the kernels
/// above (and the algorithms built on them) to these, amplitude for
/// amplitude.
#[cfg(test)]
pub(crate) mod naive {
    use super::{Complex, Matrix2, StateVector};
    use numerics::rng::{rng_from_seed, Rng};

    /// The computational basis state `|index⟩`.
    pub(crate) fn basis(n_qubits: usize, index: usize) -> StateVector {
        let mut state = StateVector::zero(n_qubits);
        let amps = state.amps_mut();
        amps[0] = Complex::ZERO;
        amps[index] = Complex::ONE;
        state
    }

    /// Rescales to unit norm: `Σ|a|²` in index order, `1/√`, scale.
    pub(crate) fn normalize(state: &mut StateVector) {
        let n = state.norm();
        if n > 0.0 {
            let s = 1.0 / n;
            for a in state.amps_mut() {
                *a = a.scale(s);
            }
        }
    }

    /// A state with no structure: every amplitude nonzero, none special.
    pub(crate) fn scrambled(n_qubits: usize, seed: u64) -> StateVector {
        let mut rng = rng_from_seed(seed);
        StateVector::from_amplitudes(
            (0..1usize << n_qubits)
                .map(|_| Complex::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
                .collect(),
        )
        .expect("random amplitudes have a norm")
    }

    pub(crate) fn apply_single(state: &mut StateVector, q: usize, m: &Matrix2) {
        let amps = state.amps_mut();
        let stride = 1usize << q;
        let mut base = 0usize;
        while base < amps.len() {
            for i0 in base..base + stride {
                let i1 = i0 + stride;
                let (a0, a1) = (amps[i0], amps[i1]);
                amps[i0] = m[0][0] * a0 + m[0][1] * a1;
                amps[i1] = m[1][0] * a0 + m[1][1] * a1;
            }
            base += stride << 1;
        }
    }

    pub(crate) fn apply_controlled(
        state: &mut StateVector,
        control: usize,
        target: usize,
        m: &Matrix2,
    ) {
        let amps = state.amps_mut();
        let t_stride = 1usize << target;
        let c_mask = 1usize << control;
        let mut base = 0usize;
        while base < amps.len() {
            for i0 in base..base + t_stride {
                if i0 & c_mask == 0 {
                    continue;
                }
                let i1 = i0 + t_stride;
                let (a0, a1) = (amps[i0], amps[i1]);
                amps[i0] = m[0][0] * a0 + m[0][1] * a1;
                amps[i1] = m[1][0] * a0 + m[1][1] * a1;
            }
            base += t_stride << 1;
        }
    }

    pub(crate) fn prob_one(state: &StateVector, q: usize) -> f64 {
        let mask = 1usize << q;
        state
            .amplitudes()
            .iter()
            .enumerate()
            .filter(|(i, _)| i & mask != 0)
            .map(|(_, a)| a.norm_sqr())
            .sum()
    }

    /// Four sweeps: `prob_one`, zero the other branch, norm, rescale.
    pub(crate) fn measure_qubit<R: Rng>(state: &mut StateVector, q: usize, rng: &mut R) -> bool {
        let p1 = prob_one(state, q);
        let outcome = rng.gen::<f64>() < p1;
        let mask = 1usize << q;
        for (i, a) in state.amps_mut().iter_mut().enumerate() {
            if ((i & mask) != 0) != outcome {
                *a = Complex::ZERO;
            }
        }
        normalize(state);
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::naive::{basis, scrambled};
    use super::*;
    use crate::gate::matrices;
    use numerics::rng::rng_from_seed;

    #[test]
    fn gate_kernels_equal_the_index_loops_for_every_qubit_order() {
        let mats = [
            matrices::HADAMARD,
            matrices::PAULI_X,
            matrices::PAULI_Y,
            matrices::PAULI_Z,
            matrices::phase(0.3),
            matrices::phase(-std::f64::consts::FRAC_PI_4),
            matrices::rx(0.7),
            matrices::ry(-1.1),
            matrices::rz(2.2),
        ];
        for n in 1..=6usize {
            let mut fast = scrambled(n, n as u64);
            let mut slow = fast.clone();
            for m in &mats {
                for q in 0..n {
                    fast.apply_single(q, m).unwrap();
                    naive::apply_single(&mut slow, q, m);
                    assert_eq!(fast, slow, "single n={n} q={q}");
                    for c in (0..n).filter(|&c| c != q) {
                        fast.apply_controlled(c, q, m).unwrap();
                        naive::apply_controlled(&mut slow, c, q, m);
                        assert_eq!(fast, slow, "controlled n={n} c={c} t={q}");
                    }
                }
            }
        }
    }

    #[test]
    fn diagonal_gates_keep_exact_zeros_zero() {
        // A sparse state: the fast path must not touch what it skips, and
        // what the index loop computes there (`1·0 + 0·a`) is zero too.
        let mut fast = basis(4, 0b1010);
        let mut slow = fast.clone();
        fast.apply_controlled(1, 3, &matrices::phase(0.9)).unwrap();
        naive::apply_controlled(&mut slow, 1, 3, &matrices::phase(0.9));
        assert_eq!(fast, slow);
        assert_eq!(fast.amplitude(0b1010).unwrap(), Complex::cis(0.9));
    }

    #[test]
    fn measurement_equals_the_four_sweep_form_for_100_seeds() {
        for seed in 0..100u64 {
            let n = 1 + (seed % 7) as usize;
            let mut fast = scrambled(n, 1_000 + seed);
            if seed % 3 == 0 {
                // Some exact zeros, as after an earlier collapse.
                fast.measure_qubit(0, &mut rng_from_seed(seed)).unwrap();
            }
            let mut slow = fast.clone();
            let q = (seed as usize * 5) % n;
            assert_eq!(fast.prob_one(q).unwrap(), naive::prob_one(&slow, q));
            let (mut rng_fast, mut rng_slow) = (rng_from_seed(seed), rng_from_seed(seed));
            let outcome = fast.measure_qubit(q, &mut rng_fast).unwrap();
            assert_eq!(outcome, naive::measure_qubit(&mut slow, q, &mut rng_slow));
            assert_eq!(fast, slow, "seed {seed}");
            assert_eq!(rng_fast.gen::<u64>(), rng_slow.gen::<u64>());
        }
    }

    #[test]
    fn zero_state() {
        let s = StateVector::zero(3);
        assert_eq!(s.dim(), 8);
        assert_eq!(s.probability(0).unwrap(), 1.0);
        assert!((s.norm() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn width_limits() {
        assert!(StateVector::try_zero(0).is_err());
        assert!(StateVector::try_zero(MAX_QUBITS + 1).is_err());
    }

    #[test]
    fn from_amplitudes_normalizes() {
        let s = StateVector::from_amplitudes(vec![Complex::new(3.0, 0.0), Complex::new(4.0, 0.0)])
            .unwrap();
        assert!((s.probability(0).unwrap() - 0.36).abs() < 1e-12);
        assert!((s.probability(1).unwrap() - 0.64).abs() < 1e-12);
    }

    #[test]
    fn from_amplitudes_rejects_bad() {
        assert!(StateVector::from_amplitudes(vec![Complex::ONE; 3]).is_err());
        assert!(StateVector::from_amplitudes(vec![Complex::ZERO; 4]).is_err());
        assert!(
            StateVector::from_amplitudes(vec![Complex::new(f64::NAN, 0.0), Complex::ONE]).is_err()
        );
    }

    #[test]
    fn hadamard_and_x() {
        let mut s = StateVector::zero(2);
        s.apply_single(0, &matrices::HADAMARD).unwrap();
        assert!((s.probability(0b00).unwrap() - 0.5).abs() < 1e-12);
        assert!((s.probability(0b01).unwrap() - 0.5).abs() < 1e-12);
        s.apply_single(1, &matrices::PAULI_X).unwrap();
        assert!((s.probability(0b10).unwrap() - 0.5).abs() < 1e-12);
        assert!((s.probability(0b11).unwrap() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn controlled_x_makes_bell() {
        let mut s = StateVector::zero(2);
        s.apply_single(0, &matrices::HADAMARD).unwrap();
        s.apply_controlled(0, 1, &matrices::PAULI_X).unwrap();
        assert!((s.probability(0b00).unwrap() - 0.5).abs() < 1e-12);
        assert!((s.probability(0b11).unwrap() - 0.5).abs() < 1e-12);
        assert!(s.probability(0b01).unwrap() < 1e-12);
    }

    #[test]
    fn controlled_requires_distinct() {
        let mut s = StateVector::zero(2);
        assert_eq!(
            s.apply_controlled(1, 1, &matrices::PAULI_X),
            Err(QuantumError::DuplicateQubits)
        );
    }

    #[test]
    fn toffoli_truth_table() {
        for input in 0..8usize {
            let mut s = basis(3, input);
            s.apply_controlled2(0, 1, 2, &matrices::PAULI_X).unwrap();
            let expected = if input & 0b11 == 0b11 {
                input ^ 0b100
            } else {
                input
            };
            assert_eq!(s.probability(expected).unwrap(), 1.0, "input {input}");
        }
    }

    #[test]
    fn swap_exchanges_bits() {
        for input in 0..4usize {
            let mut s = basis(2, input);
            s.apply_swap(0, 1).unwrap();
            let expected = ((input & 1) << 1) | ((input >> 1) & 1);
            assert_eq!(s.probability(expected).unwrap(), 1.0);
        }
    }

    #[test]
    fn norm_preserved_by_gates() {
        let mut s = StateVector::zero(4);
        let mut rng = rng_from_seed(3);
        for i in 0..50 {
            let q = i % 4;
            s.apply_single(q, &matrices::HADAMARD).unwrap();
            s.apply_single((q + 1) % 4, &matrices::phase(0.3)).unwrap();
            s.apply_controlled(q, (q + 2) % 4, &matrices::PAULI_X)
                .unwrap();
            let _ = rng.gen::<f64>();
        }
        assert!((s.norm() - 1.0).abs() < 1e-10);
    }

    #[test]
    fn measurement_collapses() {
        let mut rng = rng_from_seed(1);
        let mut s = StateVector::zero(1);
        s.apply_single(0, &matrices::HADAMARD).unwrap();
        let outcome = s.measure_qubit(0, &mut rng).unwrap();
        let idx = usize::from(outcome);
        assert!((s.probability(idx).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn measurement_statistics() {
        let mut rng = rng_from_seed(7);
        let mut ones = 0;
        for _ in 0..2000 {
            let mut s = StateVector::zero(1);
            s.apply_single(0, &matrices::HADAMARD).unwrap();
            if s.measure_qubit(0, &mut rng).unwrap() {
                ones += 1;
            }
        }
        assert!((900..1100).contains(&ones), "ones = {ones}");
    }

    #[test]
    fn overlap_and_tensor() {
        let zero = StateVector::zero(1);
        let one = basis(1, 1);
        assert!((zero.overlap(&zero).unwrap().re - 1.0).abs() < 1e-12);
        assert!(zero.overlap(&one).unwrap().norm() < 1e-12);

        let prod = one.tensor(&zero).unwrap();
        assert_eq!(prod.n_qubits(), 2);
        // `one` occupies the high qubit: |1⟩⊗|0⟩ = |10⟩ = index 2.
        assert_eq!(prod.probability(2).unwrap(), 1.0);
    }

    #[test]
    fn measure_all_deterministic_on_basis() {
        let mut rng = rng_from_seed(2);
        let mut s = basis(3, 5);
        assert_eq!(s.measure_all(&mut rng), 5);
        assert_eq!(s.probability(5).unwrap(), 1.0);
    }
}

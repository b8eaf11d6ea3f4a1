//! The gate set.
//!
//! [`Gate`] is the circuit IR: the standard single-qubit gates, their
//! parameterized rotations, and the common two-/three-qubit gates. Every
//! gate knows its operand qubits, its inverse, and how to apply itself to a
//! [`StateVector`]. The raw 2×2 matrices live in [`matrices`].
//!
//! # Example
//!
//! ```
//! use quantum::gate::Gate;
//! use quantum::state::StateVector;
//!
//! let mut state = StateVector::zero(2);
//! Gate::H(0).apply(&mut state)?;
//! Gate::CX(0, 1).apply(&mut state)?;
//! assert!((state.probability(0b11)? - 0.5).abs() < 1e-12);
//! # Ok::<(), quantum::QuantumError>(())
//! ```

use crate::state::{Matrix2, StateVector};
use crate::QuantumError;

/// Raw gate matrices.
pub mod matrices {
    use super::Matrix2;
    use numerics::Complex;

    const FRAC_1_SQRT_2: f64 = std::f64::consts::FRAC_1_SQRT_2;

    /// Hadamard.
    pub const HADAMARD: Matrix2 = [
        [
            Complex::new(FRAC_1_SQRT_2, 0.0),
            Complex::new(FRAC_1_SQRT_2, 0.0),
        ],
        [
            Complex::new(FRAC_1_SQRT_2, 0.0),
            Complex::new(-FRAC_1_SQRT_2, 0.0),
        ],
    ];
    /// Pauli X.
    pub const PAULI_X: Matrix2 = [[Complex::ZERO, Complex::ONE], [Complex::ONE, Complex::ZERO]];
    /// Pauli Y.
    pub const PAULI_Y: Matrix2 = [
        [Complex::ZERO, Complex::new(0.0, -1.0)],
        [Complex::I, Complex::ZERO],
    ];
    /// Pauli Z.
    pub const PAULI_Z: Matrix2 = [
        [Complex::ONE, Complex::ZERO],
        [Complex::ZERO, Complex::new(-1.0, 0.0)],
    ];

    /// Phase gate `diag(1, e^{iθ})`.
    #[must_use]
    pub fn phase(theta: f64) -> Matrix2 {
        [
            [Complex::ONE, Complex::ZERO],
            [Complex::ZERO, Complex::cis(theta)],
        ]
    }

    /// X-rotation `RX(θ)`.
    #[must_use]
    pub fn rx(theta: f64) -> Matrix2 {
        let c = (theta / 2.0).cos();
        let s = (theta / 2.0).sin();
        [
            [Complex::new(c, 0.0), Complex::new(0.0, -s)],
            [Complex::new(0.0, -s), Complex::new(c, 0.0)],
        ]
    }

    /// Y-rotation `RY(θ)`.
    #[must_use]
    pub fn ry(theta: f64) -> Matrix2 {
        let c = (theta / 2.0).cos();
        let s = (theta / 2.0).sin();
        [
            [Complex::new(c, 0.0), Complex::new(-s, 0.0)],
            [Complex::new(s, 0.0), Complex::new(c, 0.0)],
        ]
    }

    /// Z-rotation `RZ(θ)` (global-phase-symmetric form).
    #[must_use]
    pub fn rz(theta: f64) -> Matrix2 {
        [
            [Complex::cis(-theta / 2.0), Complex::ZERO],
            [Complex::ZERO, Complex::cis(theta / 2.0)],
        ]
    }
}

/// A quantum gate with bound operand qubits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Gate {
    /// Hadamard on a qubit.
    H(usize),
    /// Pauli X.
    X(usize),
    /// Pauli Y.
    Y(usize),
    /// Pauli Z.
    Z(usize),
    /// S = √Z.
    S(usize),
    /// S†.
    Sdg(usize),
    /// T = ⁴√Z.
    T(usize),
    /// T†.
    Tdg(usize),
    /// X rotation by an angle.
    Rx(usize, f64),
    /// Y rotation by an angle.
    Ry(usize, f64),
    /// Z rotation by an angle.
    Rz(usize, f64),
    /// Phase gate `diag(1, e^{iθ})`.
    Phase(usize, f64),
    /// Controlled-X `(control, target)`.
    CX(usize, usize),
    /// Controlled-Z `(control, target)`.
    CZ(usize, usize),
    /// Controlled phase `(control, target, θ)`.
    CPhase(usize, usize, f64),
    /// Swap two qubits.
    Swap(usize, usize),
    /// Toffoli `(control1, control2, target)`.
    Toffoli(usize, usize, usize),
}

impl Gate {
    /// The operand qubits, in declaration order.
    #[must_use]
    pub fn qubits(&self) -> Vec<usize> {
        match *self {
            Gate::H(q)
            | Gate::X(q)
            | Gate::Y(q)
            | Gate::Z(q)
            | Gate::S(q)
            | Gate::Sdg(q)
            | Gate::T(q)
            | Gate::Tdg(q)
            | Gate::Rx(q, _)
            | Gate::Ry(q, _)
            | Gate::Rz(q, _)
            | Gate::Phase(q, _) => vec![q],
            Gate::CX(a, b) | Gate::CZ(a, b) | Gate::CPhase(a, b, _) | Gate::Swap(a, b) => {
                vec![a, b]
            }
            Gate::Toffoli(a, b, c) => vec![a, b, c],
        }
    }

    /// Number of operand qubits (1, 2, or 3).
    #[must_use]
    pub fn arity(&self) -> usize {
        self.qubits().len()
    }

    /// The inverse gate.
    #[must_use]
    pub fn inverse(&self) -> Gate {
        match *self {
            Gate::S(q) => Gate::Sdg(q),
            Gate::Sdg(q) => Gate::S(q),
            Gate::T(q) => Gate::Tdg(q),
            Gate::Tdg(q) => Gate::T(q),
            Gate::Rx(q, t) => Gate::Rx(q, -t),
            Gate::Ry(q, t) => Gate::Ry(q, -t),
            Gate::Rz(q, t) => Gate::Rz(q, -t),
            Gate::Phase(q, t) => Gate::Phase(q, -t),
            Gate::CPhase(c, t, theta) => Gate::CPhase(c, t, -theta),
            // Self-inverse gates.
            g => g,
        }
    }

    /// A short mnemonic (matches the [`crate::isa`] assembly syntax).
    #[must_use]
    pub fn mnemonic(&self) -> &'static str {
        match self {
            Gate::H(_) => "h",
            Gate::X(_) => "x",
            Gate::Y(_) => "y",
            Gate::Z(_) => "z",
            Gate::S(_) => "s",
            Gate::Sdg(_) => "sdg",
            Gate::T(_) => "t",
            Gate::Tdg(_) => "tdg",
            Gate::Rx(..) => "rx",
            Gate::Ry(..) => "ry",
            Gate::Rz(..) => "rz",
            Gate::Phase(..) => "p",
            Gate::CX(..) => "cnot",
            Gate::CZ(..) => "cz",
            Gate::CPhase(..) => "cp",
            Gate::Swap(..) => "swap",
            Gate::Toffoli(..) => "toffoli",
        }
    }

    /// Applies the gate to a state.
    ///
    /// # Errors
    ///
    /// Propagates [`StateVector`] index/duplicate errors.
    pub fn apply(&self, state: &mut StateVector) -> Result<(), QuantumError> {
        use std::f64::consts::{FRAC_PI_2, FRAC_PI_4};
        match *self {
            Gate::H(q) => state.apply_single(q, &matrices::HADAMARD),
            Gate::X(q) => state.apply_single(q, &matrices::PAULI_X),
            Gate::Y(q) => state.apply_single(q, &matrices::PAULI_Y),
            Gate::Z(q) => state.apply_single(q, &matrices::PAULI_Z),
            Gate::S(q) => state.apply_single(q, &matrices::phase(FRAC_PI_2)),
            Gate::Sdg(q) => state.apply_single(q, &matrices::phase(-FRAC_PI_2)),
            Gate::T(q) => state.apply_single(q, &matrices::phase(FRAC_PI_4)),
            Gate::Tdg(q) => state.apply_single(q, &matrices::phase(-FRAC_PI_4)),
            Gate::Rx(q, t) => state.apply_single(q, &matrices::rx(t)),
            Gate::Ry(q, t) => state.apply_single(q, &matrices::ry(t)),
            Gate::Rz(q, t) => state.apply_single(q, &matrices::rz(t)),
            Gate::Phase(q, t) => state.apply_single(q, &matrices::phase(t)),
            Gate::CX(c, t) => state.apply_controlled(c, t, &matrices::PAULI_X),
            Gate::CZ(c, t) => state.apply_controlled(c, t, &matrices::PAULI_Z),
            Gate::CPhase(c, t, theta) => state.apply_controlled(c, t, &matrices::phase(theta)),
            Gate::Swap(a, b) => state.apply_swap(a, b),
            Gate::Toffoli(a, b, t) => state.apply_controlled2(a, b, t, &matrices::PAULI_X),
        }
    }

    /// Remaps operand qubits through `f` (used by the mapping pass).
    #[must_use]
    pub fn map_qubits<F: Fn(usize) -> usize>(&self, f: F) -> Gate {
        match *self {
            Gate::H(q) => Gate::H(f(q)),
            Gate::X(q) => Gate::X(f(q)),
            Gate::Y(q) => Gate::Y(f(q)),
            Gate::Z(q) => Gate::Z(f(q)),
            Gate::S(q) => Gate::S(f(q)),
            Gate::Sdg(q) => Gate::Sdg(f(q)),
            Gate::T(q) => Gate::T(f(q)),
            Gate::Tdg(q) => Gate::Tdg(f(q)),
            Gate::Rx(q, t) => Gate::Rx(f(q), t),
            Gate::Ry(q, t) => Gate::Ry(f(q), t),
            Gate::Rz(q, t) => Gate::Rz(f(q), t),
            Gate::Phase(q, t) => Gate::Phase(f(q), t),
            Gate::CX(c, t) => Gate::CX(f(c), f(t)),
            Gate::CZ(c, t) => Gate::CZ(f(c), f(t)),
            Gate::CPhase(c, t, theta) => Gate::CPhase(f(c), f(t), theta),
            Gate::Swap(a, b) => Gate::Swap(f(a), f(b)),
            Gate::Toffoli(a, b, t) => Gate::Toffoli(f(a), f(b), f(t)),
        }
    }
}

impl std::fmt::Display for Gate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            Gate::Rx(q, t) | Gate::Ry(q, t) | Gate::Rz(q, t) | Gate::Phase(q, t) => {
                write!(f, "{} q{q}, {t}", self.mnemonic())
            }
            Gate::CPhase(c, t, theta) => write!(f, "cp q{c}, q{t}, {theta}"),
            Gate::CX(a, b) | Gate::CZ(a, b) | Gate::Swap(a, b) => {
                write!(f, "{} q{a}, q{b}", self.mnemonic())
            }
            Gate::Toffoli(a, b, t) => write!(f, "toffoli q{a}, q{b}, q{t}"),
            _ => write!(f, "{} q{}", self.mnemonic(), self.qubits()[0]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use numerics::Complex;

    fn matrix_product(a: &Matrix2, b: &Matrix2) -> Matrix2 {
        let mut out = [[Complex::ZERO; 2]; 2];
        for (i, row) in out.iter_mut().enumerate() {
            for (j, cell) in row.iter_mut().enumerate() {
                *cell = a[i][0] * b[0][j] + a[i][1] * b[1][j];
            }
        }
        out
    }

    fn is_identity(m: &Matrix2, tol: f64) -> bool {
        (m[0][0] - Complex::ONE).norm() < tol
            && (m[1][1] - Complex::ONE).norm() < tol
            && m[0][1].norm() < tol
            && m[1][0].norm() < tol
    }

    #[test]
    fn pauli_matrices_square_to_identity() {
        for m in [&matrices::PAULI_X, &matrices::PAULI_Y, &matrices::PAULI_Z] {
            assert!(is_identity(&matrix_product(m, m), 1e-12));
        }
        assert!(is_identity(
            &matrix_product(&matrices::HADAMARD, &matrices::HADAMARD),
            1e-12
        ));
    }

    #[test]
    fn rotations_invert() {
        let m = matrix_product(&matrices::rx(0.7), &matrices::rx(-0.7));
        assert!(is_identity(&m, 1e-12));
        let m = matrix_product(&matrices::ry(1.1), &matrices::ry(-1.1));
        assert!(is_identity(&m, 1e-12));
    }

    #[test]
    fn s_is_sqrt_z() {
        use std::f64::consts::FRAC_PI_2;
        let s2 = matrix_product(&matrices::phase(FRAC_PI_2), &matrices::phase(FRAC_PI_2));
        for i in 0..2 {
            for j in 0..2 {
                assert!((s2[i][j] - matrices::PAULI_Z[i][j]).norm() < 1e-12);
            }
        }
    }

    #[test]
    fn gate_inverse_roundtrip_on_state() {
        use crate::state::StateVector;
        let gates = [
            Gate::H(0),
            Gate::T(1),
            Gate::Rx(2, 0.4),
            Gate::Ry(0, -1.2),
            Gate::Rz(1, 2.2),
            Gate::Phase(2, 0.9),
            Gate::CX(0, 1),
            Gate::CZ(1, 2),
            Gate::CPhase(0, 2, 0.8),
            Gate::Swap(0, 2),
            Gate::Toffoli(0, 1, 2),
        ];
        // Prepare a nontrivial state.
        let mut s = StateVector::zero(3);
        Gate::H(0).apply(&mut s).unwrap();
        Gate::H(1).apply(&mut s).unwrap();
        Gate::T(0).apply(&mut s).unwrap();
        Gate::CX(0, 2).apply(&mut s).unwrap();
        let reference = s.clone();
        for g in gates {
            g.apply(&mut s).unwrap();
            g.inverse().apply(&mut s).unwrap();
        }
        let fidelity = reference.overlap(&s).unwrap().norm();
        assert!((fidelity - 1.0).abs() < 1e-10, "fidelity {fidelity}");
    }

    /// [`Gate::apply`] through the reference index loops
    /// ([`crate::state::naive`]). Swap and Toffoli go through the kernels
    /// `apply` itself uses — nothing about them is specialised.
    fn naive_apply(gate: &Gate, state: &mut crate::state::StateVector) {
        use crate::state::naive::{apply_controlled, apply_single};
        use std::f64::consts::{FRAC_PI_2, FRAC_PI_4};
        match *gate {
            Gate::H(q) => apply_single(state, q, &matrices::HADAMARD),
            Gate::X(q) => apply_single(state, q, &matrices::PAULI_X),
            Gate::Y(q) => apply_single(state, q, &matrices::PAULI_Y),
            Gate::Z(q) => apply_single(state, q, &matrices::PAULI_Z),
            Gate::S(q) => apply_single(state, q, &matrices::phase(FRAC_PI_2)),
            Gate::Sdg(q) => apply_single(state, q, &matrices::phase(-FRAC_PI_2)),
            Gate::T(q) => apply_single(state, q, &matrices::phase(FRAC_PI_4)),
            Gate::Tdg(q) => apply_single(state, q, &matrices::phase(-FRAC_PI_4)),
            Gate::Rx(q, t) => apply_single(state, q, &matrices::rx(t)),
            Gate::Ry(q, t) => apply_single(state, q, &matrices::ry(t)),
            Gate::Rz(q, t) => apply_single(state, q, &matrices::rz(t)),
            Gate::Phase(q, t) => apply_single(state, q, &matrices::phase(t)),
            Gate::CX(c, t) => apply_controlled(state, c, t, &matrices::PAULI_X),
            Gate::CZ(c, t) => apply_controlled(state, c, t, &matrices::PAULI_Z),
            Gate::CPhase(c, t, theta) => apply_controlled(state, c, t, &matrices::phase(theta)),
            Gate::Swap(..) | Gate::Toffoli(..) => gate.apply(state).unwrap(),
        }
    }

    #[test]
    fn random_circuits_equal_the_index_loops_amplitude_for_amplitude() {
        use crate::state::StateVector;
        use numerics::rng::{rng_from_seed, Rng};
        let mut rng = rng_from_seed(17);
        for n in 1..=10usize {
            let mut fast = StateVector::zero(n);
            let mut slow = fast.clone();
            for step in 0..40 * n {
                // Distinct operands, in every order.
                let a = rng.gen_range(0..n);
                let b = (a + 1 + rng.gen_range(0..n.max(2) - 1)) % n;
                let c = (0..n).find(|&q| q != a && q != b);
                let t = rng.gen_range(-3.0..3.0);
                let gate = match (rng.gen_range(0..17usize), n, c) {
                    (0, ..) => Gate::H(a),
                    (1, ..) => Gate::X(a),
                    (2, ..) => Gate::Y(a),
                    (3, ..) => Gate::Z(a),
                    (4, ..) => Gate::S(a),
                    (5, ..) => Gate::Sdg(a),
                    (6, ..) => Gate::T(a),
                    (7, ..) => Gate::Tdg(a),
                    (8, ..) => Gate::Rx(a, t),
                    (9, ..) => Gate::Ry(a, t),
                    (10, ..) => Gate::Rz(a, t),
                    (11, ..) => Gate::Phase(a, t),
                    (12, 2.., _) => Gate::CX(a, b),
                    (13, 2.., _) => Gate::CZ(a, b),
                    (14, 2.., _) => Gate::CPhase(a, b, t),
                    (15, 2.., _) => Gate::Swap(a, b),
                    (16, _, Some(c)) => Gate::Toffoli(a, b, c),
                    _ => Gate::H(a),
                };
                gate.apply(&mut fast).unwrap();
                naive_apply(&gate, &mut slow);
                assert_eq!(fast, slow, "n={n} step {step}: {gate}");
            }
        }
    }

    #[test]
    fn qubits_and_arity() {
        assert_eq!(Gate::H(3).qubits(), vec![3]);
        assert_eq!(Gate::CX(1, 4).qubits(), vec![1, 4]);
        assert_eq!(Gate::Toffoli(0, 1, 2).arity(), 3);
    }

    #[test]
    fn map_qubits_translates() {
        let g = Gate::CX(0, 1).map_qubits(|q| q + 5);
        assert_eq!(g, Gate::CX(5, 6));
    }

    #[test]
    fn display_format() {
        assert_eq!(Gate::H(2).to_string(), "h q2");
        assert_eq!(Gate::CX(0, 1).to_string(), "cnot q0, q1");
        assert_eq!(Gate::Rz(1, 0.5).to_string(), "rz q1, 0.5");
        assert_eq!(Gate::Toffoli(0, 1, 2).to_string(), "toffoli q0, q1, q2");
    }

    #[test]
    fn cz_is_symmetric() {
        use crate::state::StateVector;
        let mut a = StateVector::zero(2);
        Gate::H(0).apply(&mut a).unwrap();
        Gate::H(1).apply(&mut a).unwrap();
        let mut b = a.clone();
        Gate::CZ(0, 1).apply(&mut a).unwrap();
        Gate::CZ(1, 0).apply(&mut b).unwrap();
        assert!((a.overlap(&b).unwrap().norm() - 1.0).abs() < 1e-12);
    }
}

//! Randomized tests on the workspace's core invariants.
//!
//! Formerly written with `proptest`; rewritten on the in-repo
//! `numerics::rng` so the tier-1 suite builds with no crates.io
//! dependencies. Each test draws many random cases from a fixed seed, so
//! failures reproduce deterministically.

use mem::assignment::Assignment;
use mem::cnf::{Clause, Formula, Literal};
use numerics::rng::{rng_from_seed, Rng, StdRng};
use quantum::circuit::Circuit;
use quantum::gate::Gate;
use quantum::state::StateVector;
use vision::image::GrayImage;

const CASES: usize = 64;

/// Draws a random gate over `n` qubits.
fn random_gate(rng: &mut StdRng, n: usize) -> Gate {
    fn q2(rng: &mut StdRng, n: usize) -> (usize, usize) {
        let a = rng.gen_range(0..n);
        loop {
            let b = rng.gen_range(0..n);
            if b != a {
                return (a, b);
            }
        }
    }
    let kind = rng.gen_range(0..10);
    let q = rng.gen_range(0..n);
    match kind {
        0 => Gate::H(q),
        1 => Gate::X(q),
        2 => Gate::S(q),
        3 => Gate::T(q),
        4 => Gate::Rx(q, rng.gen_range(-3.0..3.0)),
        5 => Gate::Ry(q, rng.gen_range(-3.0..3.0)),
        6 => Gate::Phase(q, rng.gen_range(-3.0..3.0)),
        7 => {
            let (a, b) = q2(rng, n);
            Gate::CX(a, b)
        }
        8 => {
            let (a, b) = q2(rng, n);
            Gate::CZ(a, b)
        }
        _ => {
            let (a, b) = q2(rng, n);
            Gate::Swap(a, b)
        }
    }
}

/// Unitary evolution preserves the state norm.
#[test]
fn random_circuits_preserve_norm() {
    let mut rng = rng_from_seed(0xA11CE);
    for _ in 0..CASES {
        let n_gates = rng.gen_range(1..40);
        let mut state = StateVector::zero(4);
        for _ in 0..n_gates {
            random_gate(&mut rng, 4).apply(&mut state).unwrap();
        }
        assert!((state.norm() - 1.0).abs() < 1e-9);
    }
}

/// A circuit followed by its inverse is the identity.
#[test]
fn circuit_inverse_roundtrip() {
    let mut rng = rng_from_seed(0xB0B);
    for _ in 0..CASES {
        let n_gates = rng.gen_range(1..25);
        let mut c = Circuit::new(3).unwrap();
        for _ in 0..n_gates {
            c.push(random_gate(&mut rng, 3)).unwrap();
        }
        let forward = c.run(StateVector::zero(3)).unwrap();
        let back = c.inverse().run(forward).unwrap();
        assert!((back.probability(0).unwrap() - 1.0).abs() < 1e-8);
    }
}

/// DIMACS emit/parse round-trips arbitrary valid formulas.
#[test]
fn dimacs_roundtrip() {
    let mut rng = rng_from_seed(0xD1AC5);
    for _ in 0..CASES {
        let n_clauses = rng.gen_range(1..20);
        let clauses: Vec<Clause> = (0..n_clauses)
            .map(|_| {
                let width = rng.gen_range(1..4);
                let vars = numerics::rng::sample_indices(&mut rng, 12, width);
                Clause::new(
                    vars.iter()
                        .enumerate()
                        .map(|(i, &v)| {
                            if i % 2 == 0 {
                                Literal::positive(v)
                            } else {
                                Literal::negative(v)
                            }
                        })
                        .collect(),
                )
                .unwrap()
            })
            .collect();
        let f = Formula::new(12, clauses).unwrap();
        let text = mem::dimacs::emit(&f);
        let parsed = mem::dimacs::parse(&text).unwrap();
        assert_eq!(parsed, f);
    }
}

/// SAT evaluation agrees between count and boolean forms.
#[test]
fn unsat_count_consistent() {
    let mut rng = rng_from_seed(0x5A7);
    let f = mem::generators::random_ksat(12, 3, 3.0, 99).unwrap();
    for _ in 0..CASES {
        let bits: Vec<bool> = (0..12).map(|_| rng.gen()).collect();
        let a = Assignment::from_bools(&bits);
        let count = f.count_unsatisfied(&a);
        assert_eq!(count == 0, f.is_satisfied(&a));
        assert_eq!(count, f.unsatisfied_clauses(&a).len());
    }
}

/// The QUBO → weighted-MaxSAT reduction is exact on random points.
#[test]
fn qubo_maxsat_reduction_exact() {
    let mut rng = rng_from_seed(0x9B0);
    for _ in 0..CASES {
        let mut q = mem::qubo::Qubo::new(5).unwrap();
        for i in 0..5 {
            q.add_linear(i, rng.gen_range(-2.0..2.0)).unwrap();
        }
        for k in 0..4 {
            q.add_quadratic(k, (k + 1) % 5, rng.gen_range(-2.0..2.0))
                .unwrap();
        }
        let probe: Vec<bool> = (0..5).map(|_| rng.gen()).collect();
        let (wf, offset) = q.to_weighted_maxsat().unwrap();
        let direct = q.value(&probe);
        let via = wf.violation_cost(&Assignment::from_bools(&probe)) + offset;
        assert!((direct - via).abs() < 1e-9, "direct {direct} vs via {via}");
    }
}

/// PGM image round-trips through write/read.
#[test]
fn pgm_roundtrip() {
    let mut rng = rng_from_seed(0x969);
    for _ in 0..CASES {
        let w = rng.gen_range(1..12);
        let h = rng.gen_range(1..12);
        let mut img = GrayImage::new(w, h, 0);
        for y in 0..h {
            for x in 0..w {
                img.set(x, y, (rng.next_u64() >> 32) as u8).unwrap();
            }
        }
        let mut buf = Vec::new();
        img.write_pgm(&mut buf).unwrap();
        let back = GrayImage::read_pgm(&buf[..]).unwrap();
        assert_eq!(img, back);
    }
}

/// Voltage thresholding and spin conversion are mutually consistent.
#[test]
fn assignment_voltage_spin_consistency() {
    let mut rng = rng_from_seed(0xB01);
    for _ in 0..CASES {
        let len = rng.gen_range(1..20);
        let voltages: Vec<f64> = (0..len).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let a = Assignment::from_voltages(&voltages);
        let spins = a.to_spins();
        for (v, s) in voltages.iter().zip(&spins) {
            assert_eq!(*v > 0.0, *s == 1);
        }
    }
}

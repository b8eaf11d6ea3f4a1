//! Randomized tests of the quantum crate's invariants.
//!
//! Formerly written with `proptest`; rewritten on the in-repo
//! `numerics::rng` so the suite builds offline. Each test draws many
//! random cases from a fixed seed, so failures reproduce deterministically.

use numerics::rng::{rng_from_seed, Rng, StdRng};
use quantum::circuit::Circuit;
use quantum::gate::Gate;
use quantum::isa::{assemble, Program};
use quantum::numtheory;
use quantum::state::StateVector;

const CASES: usize = 64;

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
    let kind = rng.gen_range(0..11);
    let q = rng.gen_range(0..n);
    match kind {
        0 => Gate::H(q),
        1 => Gate::X(q),
        2 => Gate::Y(q),
        3 => Gate::Z(q),
        4 => Gate::S(q),
        5 => Gate::Tdg(q),
        6 => Gate::Rz(q, rng.gen_range(-3.0..3.0)),
        7 => {
            let (a, b) = q2(rng, n);
            Gate::CX(a, b)
        }
        8 => {
            let (a, b) = q2(rng, n);
            Gate::CZ(a, b)
        }
        9 => {
            let (a, b) = q2(rng, n);
            Gate::Swap(a, b)
        }
        _ => {
            let (a, b) = q2(rng, n);
            Gate::CPhase(a, b, 0.7)
        }
    }
}

/// Assembly round-trips programs built from circuits.
#[test]
fn isa_roundtrip() {
    let mut rng = rng_from_seed(0x15A);
    for _ in 0..CASES {
        let n_gates = rng.gen_range(0..20);
        let mut c = Circuit::new(4).unwrap();
        for _ in 0..n_gates {
            c.push(random_gate(&mut rng, 4)).unwrap();
        }
        let program = Program::from_circuit(&c, true);
        let text = program.disassemble();
        let reparsed = assemble(&text).unwrap();
        assert_eq!(reparsed, program);
    }
}

/// Probabilities of a state always sum to 1 after arbitrary circuits.
#[test]
fn probabilities_normalized() {
    let mut rng = rng_from_seed(0x9A0B);
    for _ in 0..CASES {
        let n_gates = rng.gen_range(1..30);
        let mut state = StateVector::zero(4);
        for _ in 0..n_gates {
            random_gate(&mut rng, 4).apply(&mut state).unwrap();
        }
        let total: f64 = (0..state.dim())
            .map(|i| state.probability(i).unwrap())
            .sum();
        assert!((total - 1.0).abs() < 1e-9);
    }
}

/// mod_pow agrees with the naive product for small exponents.
#[test]
fn mod_pow_agrees_with_naive() {
    let mut rng = rng_from_seed(0x90D);
    for _ in 0..CASES {
        let base = rng.gen_range(1u64..50);
        let exp = rng.gen_range(0u64..12);
        let modulus = rng.gen_range(2u64..1000);
        let naive = (0..exp).fold(1u64, |acc, _| acc * (base % modulus) % modulus);
        assert_eq!(numtheory::mod_pow(base, exp, modulus), naive);
    }
}

/// gcd divides both arguments and any common divisor divides it.
#[test]
fn gcd_is_greatest() {
    let mut rng = rng_from_seed(0x6CD);
    for _ in 0..CASES {
        let a = rng.gen_range(1u64..10_000);
        let b = rng.gen_range(1u64..10_000);
        let g = numtheory::gcd(a, b);
        assert_eq!(a % g, 0);
        assert_eq!(b % g, 0);
        for d in (g + 1)..=(a.min(b)).min(g + 50) {
            assert!(!(a % d == 0 && b % d == 0), "common divisor {d} > gcd {g}");
        }
    }
}

/// Convergents of p/q include the exact fraction when q is small.
#[test]
fn convergents_reach_exact_fraction() {
    let mut rng = rng_from_seed(0xC0F);
    for _ in 0..CASES {
        let p = rng.gen_range(1u64..50);
        let q = rng.gen_range(1u64..50);
        let g = numtheory::gcd(p, q);
        let (pr, qr) = (p / g, q / g);
        let convergents = numtheory::convergents(p, q, qr);
        assert!(
            convergents.contains(&(pr, qr)),
            "{pr}/{qr} not among {convergents:?}"
        );
    }
}

//! E9 — §II-C cryptography killer app: Shor factoring on the simulated
//! quantum accelerator, with the classical trial-division cost alongside.

use crate::banner;
use numerics::rng::rng_from_seed;
use quantum::numtheory::trial_division;
use quantum::shor;

pub fn run() {
    banner("E9 shor", "§II-C Shor factorization");
    println!(
        "{:>5} | {:>9} | {:>13} | {:>12} | {:>14}",
        "N", "factors", "quantum calls", "quantum ops", "classical divs"
    );
    println!("{}", "-".repeat(64));
    let mut rng = rng_from_seed(17);
    for n in [15u64, 21, 33, 35, 39] {
        // Classical gcd shortcuts disabled so every row exercises the
        // quantum order-finding pipeline.
        let outcome = shor::factor_with_options(n, &mut rng, 60, false).expect("factors");
        let (_, divs) = trial_division(n);
        println!(
            "{:>5} | {:>3} x {:>3} | {:>13} | {:>12} | {:>14}",
            n,
            outcome.factors.0,
            outcome.factors.1,
            outcome.quantum_calls,
            outcome.quantum_ops,
            divs
        );
    }
    println!("\norder finding: 2m counting qubits over controlled modular");
    println!("multiplication, inverse QFT, continued fractions — end to end");
}

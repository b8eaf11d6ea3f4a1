//! Randomized tests of the numerics crate's invariants.
//!
//! Formerly written with `proptest`; rewritten on the in-repo
//! `numerics::rng` so the suite builds offline. Each test draws many
//! random cases from a fixed seed, so failures reproduce deterministically.

use numerics::interp::Interpolator;
use numerics::ode::{integrate, OdeSystem, Rk4};
use numerics::rng::{rng_from_seed, Rng, StdRng};

const CASES: usize = 128;

fn random_vec(rng: &mut StdRng, len: usize, lo: f64, hi: f64) -> Vec<f64> {
    (0..len).map(|_| rng.gen_range(lo..hi)).collect()
}

/// Linear interpolation stays within the convex hull of the knot values.
#[test]
fn linear_interp_within_hull() {
    let mut rng = rng_from_seed(0x0A3);
    for _ in 0..CASES {
        let len = rng.gen_range(2..12);
        let ys = random_vec(&mut rng, len, -10.0, 10.0);
        let t = rng.gen_range(0.0..1.0);
        let xs: Vec<f64> = (0..ys.len()).map(|i| i as f64).collect();
        let interp = Interpolator::linear(&xs, &ys).unwrap();
        let x = t * (ys.len() - 1) as f64;
        let y = interp.eval(x);
        let lo = ys.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = ys.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!(
            y >= lo - 1e-12 && y <= hi + 1e-12,
            "y = {y} outside [{lo}, {hi}]"
        );
    }
}

/// PCHIP interpolation of monotone data is monotone.
#[test]
fn pchip_preserves_monotonicity() {
    let mut rng = rng_from_seed(0x0A4);
    for _ in 0..CASES {
        let len = rng.gen_range(2..10);
        let increments = random_vec(&mut rng, len, 0.0, 5.0);
        let xs: Vec<f64> = (0..=increments.len()).map(|i| i as f64).collect();
        let mut ys = vec![0.0];
        for &d in &increments {
            ys.push(ys.last().unwrap() + d);
        }
        let interp = Interpolator::pchip(&xs, &ys).unwrap();
        let mut prev = interp.eval(0.0);
        for i in 1..=(increments.len() * 20) {
            let x = i as f64 * 0.05;
            let y = interp.eval(x);
            assert!(y >= prev - 1e-9, "non-monotone at x = {x}");
            prev = y;
        }
    }
}

/// RK4 on dy/dt = a·y matches the exact exponential for stable rates.
#[test]
fn rk4_matches_exponential() {
    struct Linear {
        a: f64,
    }
    impl OdeSystem for Linear {
        fn dim(&self) -> usize {
            1
        }
        fn rhs(&self, _t: f64, y: &[f64], dy: &mut [f64]) {
            dy[0] = self.a * y[0];
        }
    }
    let mut rng = rng_from_seed(0x0A5);
    // Fewer cases: each integrates 1000 RK4 steps.
    for _ in 0..CASES / 4 {
        let a = rng.gen_range(-2.0..0.5);
        let y0 = rng.gen_range(0.1..5.0);
        let sys = Linear { a };
        let mut y = vec![y0];
        integrate(&sys, &mut Rk4::new(1e-3), 0.0, 1.0, &mut y);
        let exact = y0 * a.exp();
        assert!((y[0] - exact).abs() < 1e-6 * exact.abs().max(1.0));
    }
}

/// Power-law fitting recovers exponents from clean synthetic data.
#[test]
fn power_law_fit_recovers_exponent() {
    let mut rng = rng_from_seed(0x0A6);
    for _ in 0..CASES / 4 {
        let k = rng.gen_range(0.5..4.0);
        let amp = rng.gen_range(0.5..3.0);
        let xs: Vec<f64> = (1..=40).map(|i| i as f64 * 0.05).collect();
        let ys: Vec<f64> = xs.iter().map(|x| amp * x.powf(k) + 0.1).collect();
        let fit = numerics::fit::fit_power_law_offset(&xs, &ys, 0.2, 6.0).unwrap();
        assert!(
            (fit.exponent - k).abs() < 0.01,
            "k = {k} fitted {}",
            fit.exponent
        );
    }
}

/// Seed streams never collide across distinct masters (spot check).
#[test]
fn seed_streams_distinct() {
    let mut rng = rng_from_seed(0x0A7);
    for _ in 0..CASES {
        let master_a: u64 = rng.gen();
        let master_b: u64 = rng.gen();
        if master_a == master_b {
            continue;
        }
        let mut sa = numerics::rng::SeedStream::new(master_a);
        let mut sb = numerics::rng::SeedStream::new(master_b);
        assert_ne!(sa.next_seed(), sb.next_seed());
    }
}

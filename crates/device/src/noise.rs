//! Seeded noise sources.
//!
//! Two experiments need controlled stochastic perturbation:
//!
//! * §IV's robustness claim ("adding noise to Eqs. 1 and 2" leaves the DMM
//!   solution search intact, ref. \[59\]) — Gaussian noise injected into the
//!   ODE right-hand side of the memcomputing solver;
//! * oscillator-fabric device mismatch: per-device parameter spread and
//!   voltage jitter.
//!
//! All sources are deterministic given a seed, per the workspace's
//! reproducibility policy.
//!
//! # Example
//!
//! ```
//! use device::noise::{GaussianNoise, NoiseSource};
//!
//! let mut noise = GaussianNoise::new(0.1, 42);
//! let a = noise.sample();
//! let mut again = GaussianNoise::new(0.1, 42);
//! assert_eq!(a, again.sample());
//! ```

use numerics::rng::Rng;
use numerics::rng::StdRng;
use numerics::rng::{rng_from_seed, sample_normal};

/// A stream of scalar noise samples.
///
/// Object-safe so heterogeneous noise configurations can be stored behind
/// `Box<dyn NoiseSource>`.
pub trait NoiseSource {
    /// Draws the next sample.
    fn sample(&mut self) -> f64;

    /// The RMS amplitude of the source (σ for Gaussian, `a/√3` for
    /// uniform-on-`[-a, a]`).
    fn rms(&self) -> f64;
}

/// Zero-mean Gaussian white noise with standard deviation `sigma`.
#[derive(Debug, Clone)]
pub struct GaussianNoise {
    sigma: f64,
    rng: StdRng,
}

impl GaussianNoise {
    /// Creates a source with standard deviation `sigma` (≥ 0) and a seed.
    ///
    /// # Panics
    ///
    /// Panics when `sigma` is negative or non-finite.
    #[must_use]
    pub fn new(sigma: f64, seed: u64) -> Self {
        assert!(sigma >= 0.0 && sigma.is_finite(), "sigma must be >= 0");
        GaussianNoise {
            sigma,
            rng: rng_from_seed(seed),
        }
    }
}

impl NoiseSource for GaussianNoise {
    fn sample(&mut self) -> f64 {
        if self.sigma == 0.0 {
            return 0.0;
        }
        self.sigma * sample_normal(&mut self.rng)
    }

    fn rms(&self) -> f64 {
        self.sigma
    }
}

/// Applies multiplicative parameter mismatch: returns `nominal · (1 + δ)`
/// with `δ ~ N(0, spread²)`, as used for device-to-device variation studies.
pub fn with_mismatch<R: Rng>(rng: &mut R, nominal: f64, spread: f64) -> f64 {
    nominal * (1.0 + spread * sample_normal(rng))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gaussian_deterministic() {
        let mut a = GaussianNoise::new(1.0, 7);
        let mut b = GaussianNoise::new(1.0, 7);
        for _ in 0..10 {
            assert_eq!(a.sample(), b.sample());
        }
    }

    #[test]
    fn gaussian_moments() {
        let mut src = GaussianNoise::new(0.5, 3);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| src.sample()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02);
        assert!((var.sqrt() - 0.5).abs() < 0.02);
    }

    #[test]
    fn zero_sigma_is_silent() {
        let mut src = GaussianNoise::new(0.0, 1);
        for _ in 0..10 {
            assert_eq!(src.sample(), 0.0);
        }
    }

    #[test]
    fn trait_object_usable() {
        let mut sources: Vec<Box<dyn NoiseSource>> = vec![
            Box::new(GaussianNoise::new(0.1, 1)),
            Box::new(GaussianNoise::new(0.0, 2)),
        ];
        for s in &mut sources {
            let _ = s.sample();
        }
    }

    #[test]
    fn mismatch_centered_on_nominal() {
        let mut rng = rng_from_seed(11);
        let n = 10_000;
        let mean = (0..n)
            .map(|_| with_mismatch(&mut rng, 100.0, 0.05))
            .sum::<f64>()
            / n as f64;
        assert!((mean - 100.0).abs() < 0.5);
    }

    #[test]
    #[should_panic(expected = "sigma must be >= 0")]
    fn gaussian_rejects_negative_sigma() {
        let _ = GaussianNoise::new(-1.0, 0);
    }
}

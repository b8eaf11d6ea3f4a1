//! Ordinary differential equation integration.
//!
//! One stepper, [`Rk4`]: classic fixed-step 4th-order Runge–Kutta, the
//! workhorse for the VO₂ relaxation-oscillator circuits, whose time
//! constants are known in advance. (The memcomputing dynamics carry their
//! own forward-Euler integrator in `mem::dmm`.)
//!
//! The stepper drives a user-supplied [`OdeSystem`], and three drivers run
//! whole trajectories: [`integrate`] keeps only the final state,
//! [`integrate_observed`] shows every accepted state to a callback (which
//! copies out what it wants — a few variables of a large state, say —
//! without the driver allocating anything), and [`integrate_sampled`]
//! records whole states on top of it.
//!
//! # Example
//!
//! ```
//! use numerics::ode::{integrate, OdeSystem, Rk4};
//!
//! /// dy/dt = -y  → y(t) = e^{-t}
//! struct Decay;
//! impl OdeSystem for Decay {
//!     fn dim(&self) -> usize { 1 }
//!     fn rhs(&self, _t: f64, y: &[f64], dy: &mut [f64]) { dy[0] = -y[0]; }
//! }
//!
//! let mut y = vec![1.0];
//! integrate(&Decay, &mut Rk4::new(1e-3), 0.0, 1.0, &mut y);
//! assert!((y[0] - (-1.0f64).exp()).abs() < 1e-9);
//! ```

/// A first-order ODE system `dy/dt = f(t, y)`.
///
/// Implementors describe only the right-hand side; integration state lives in
/// the steppers. The `rhs` signature writes into a caller-provided buffer so
/// that inner loops are allocation-free.
pub trait OdeSystem {
    /// Number of state variables.
    fn dim(&self) -> usize;

    /// Evaluates the derivative `dy = f(t, y)`.
    ///
    /// `dy` is guaranteed to have length [`OdeSystem::dim`]; its previous
    /// contents are unspecified and must be fully overwritten.
    fn rhs(&self, t: f64, y: &[f64], dy: &mut [f64]);

    /// Optional post-step projection applied after every accepted step —
    /// e.g. clamping memory variables into `[0, 1]` for memcomputing
    /// dynamics. The default is a no-op.
    fn project(&self, _y: &mut [f64]) {}
}

/// Classic fixed-step 4th-order Runge–Kutta.
#[derive(Debug, Clone)]
pub struct Rk4 {
    h: f64,
    k1: Vec<f64>,
    k2: Vec<f64>,
    k3: Vec<f64>,
    k4: Vec<f64>,
    tmp: Vec<f64>,
}

impl Rk4 {
    /// Creates an RK4 stepper with step size `h`.
    ///
    /// # Panics
    ///
    /// Panics if `h` is not finite and positive.
    #[must_use]
    pub fn new(h: f64) -> Self {
        assert!(h.is_finite() && h > 0.0, "step size must be positive");
        Rk4 {
            h,
            k1: Vec::new(),
            k2: Vec::new(),
            k3: Vec::new(),
            k4: Vec::new(),
            tmp: Vec::new(),
        }
    }

    fn ensure_dim(&mut self, n: usize) {
        if self.k1.len() != n {
            self.k1.resize(n, 0.0);
            self.k2.resize(n, 0.0);
            self.k3.resize(n, 0.0);
            self.k4.resize(n, 0.0);
            self.tmp.resize(n, 0.0);
        }
    }

    /// Advances `y` in place by one step from time `t`, returning the new
    /// time `t + h`.
    pub fn step<S: OdeSystem>(&mut self, system: &S, t: f64, y: &mut [f64]) -> f64 {
        let n = system.dim();
        self.ensure_dim(n);
        let h = self.h;
        // Equal-length slices, so the stage loops carry no bounds checks
        // and vectorize.
        let y = &mut y[..n];
        let (k1, k2, k3, k4) = (
            &mut self.k1[..n],
            &mut self.k2[..n],
            &mut self.k3[..n],
            &mut self.k4[..n],
        );
        let tmp = &mut self.tmp[..n];

        system.rhs(t, y, k1);
        for i in 0..n {
            tmp[i] = y[i] + 0.5 * h * k1[i];
        }
        system.rhs(t + 0.5 * h, tmp, k2);
        for i in 0..n {
            tmp[i] = y[i] + 0.5 * h * k2[i];
        }
        system.rhs(t + 0.5 * h, tmp, k3);
        for i in 0..n {
            tmp[i] = y[i] + h * k3[i];
        }
        system.rhs(t + h, tmp, k4);
        for i in 0..n {
            y[i] += h / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]);
        }
        system.project(y);
        t + h
    }
}

/// Integrates `system` from `t0` to at least `t1`, mutating `y` in place.
///
/// Returns the actual final time (≥ `t1`; the last step may overshoot by at
/// most one step size).
pub fn integrate<S: OdeSystem>(
    system: &S,
    stepper: &mut Rk4,
    t0: f64,
    t1: f64,
    y: &mut [f64],
) -> f64 {
    let mut t = t0;
    while t < t1 {
        t = stepper.step(system, t, y);
    }
    t
}

/// Integrates like [`integrate`], calling `observe(t, y)` on the initial
/// condition and after every accepted step. Allocates nothing itself.
///
/// Returns the actual final time (≥ `t1`), which is also the time of the
/// last observation.
pub fn integrate_observed<S: OdeSystem, F: FnMut(f64, &[f64])>(
    system: &S,
    stepper: &mut Rk4,
    t0: f64,
    t1: f64,
    y: &mut [f64],
    mut observe: F,
) -> f64 {
    let mut t = t0;
    observe(t, y);
    while t < t1 {
        t = stepper.step(system, t, y);
        observe(t, y);
    }
    t
}

/// Integrates and records the trajectory every `sample_every` accepted steps.
///
/// Returns `(times, states)` where `states[k]` is the state at `times[k]`.
/// The initial condition is always included as the first sample, and the
/// final state as the last. Every sample is a copy of the whole state; a
/// caller that wants a few variables of it records them itself through
/// [`integrate_observed`].
pub fn integrate_sampled<S: OdeSystem>(
    system: &S,
    stepper: &mut Rk4,
    t0: f64,
    t1: f64,
    y: &mut [f64],
    sample_every: usize,
) -> (Vec<f64>, Vec<Vec<f64>>) {
    let every = sample_every.max(1);
    let mut times = Vec::new();
    let mut states = Vec::new();
    let mut count = 0usize;
    let t = integrate_observed(system, stepper, t0, t1, y, |t, y| {
        if count % every == 0 {
            times.push(t);
            states.push(y.to_vec());
        }
        count += 1;
    });
    if *times.last().expect("the initial condition is sampled") < t {
        times.push(t);
        states.push(y.to_vec());
    }
    (times, states)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    struct Decay {
        lambda: f64,
    }
    impl OdeSystem for Decay {
        fn dim(&self) -> usize {
            1
        }
        fn rhs(&self, _t: f64, y: &[f64], dy: &mut [f64]) {
            dy[0] = -self.lambda * y[0];
        }
    }

    struct Harmonic;
    impl OdeSystem for Harmonic {
        fn dim(&self) -> usize {
            2
        }
        fn rhs(&self, _t: f64, y: &[f64], dy: &mut [f64]) {
            dy[0] = y[1];
            dy[1] = -y[0];
        }
    }

    /// dy/dt = 1 but project clamps y into [0, 0.5].
    struct Clamped;
    impl OdeSystem for Clamped {
        fn dim(&self) -> usize {
            1
        }
        fn rhs(&self, _t: f64, _y: &[f64], dy: &mut [f64]) {
            dy[0] = 1.0;
        }
        fn project(&self, y: &mut [f64]) {
            y[0] = y[0].clamp(0.0, 0.5);
        }
    }

    #[test]
    fn rk4_exponential_decay() {
        let sys = Decay { lambda: 2.0 };
        let mut y = vec![1.0];
        integrate(&sys, &mut Rk4::new(1e-3), 0.0, 1.0, &mut y);
        assert!(approx_eq(y[0], (-2.0f64).exp(), 1e-8));
    }

    #[test]
    fn rk4_energy_conservation() {
        let mut y = vec![1.0, 0.0];
        integrate(&Harmonic, &mut Rk4::new(1e-3), 0.0, 20.0, &mut y);
        let e = 0.5 * (y[0] * y[0] + y[1] * y[1]);
        assert!(approx_eq(e, 0.5, 1e-7));
    }

    #[test]
    fn rk4_projection_applied() {
        let mut y = vec![0.0];
        integrate(&Clamped, &mut Rk4::new(0.1), 0.0, 10.0, &mut y);
        assert_eq!(y[0], 0.5);
    }

    #[test]
    fn sampled_trajectory_includes_endpoints() {
        let sys = Decay { lambda: 1.0 };
        let mut y = vec![1.0];
        let (times, states) = integrate_sampled(&sys, &mut Rk4::new(0.01), 0.0, 1.0, &mut y, 10);
        assert_eq!(times.len(), states.len());
        assert_eq!(times[0], 0.0);
        assert!(*times.last().unwrap() >= 1.0);
        // Trajectory is monotone decreasing.
        for w in states.windows(2) {
            assert!(w[1][0] < w[0][0]);
        }
    }

    #[test]
    fn observed_trajectory_sees_every_accepted_state() {
        let sys = Decay { lambda: 1.0 };
        let mut y = vec![1.0];
        let mut seen = Vec::new();
        let t_end = integrate_observed(&sys, &mut Rk4::new(0.01), 0.0, 1.0, &mut y, |t, y| {
            seen.push((t, y[0]));
        });
        let mut y = vec![1.0];
        let (times, states) = integrate_sampled(&sys, &mut Rk4::new(0.01), 0.0, 1.0, &mut y, 1);
        assert_eq!(seen.len(), times.len());
        assert_eq!(seen.last().unwrap().0, t_end);
        for ((t, v), (time, state)) in seen.iter().zip(times.iter().zip(&states)) {
            assert_eq!((t, v), (time, &state[0]));
        }
        // A stride that does not divide the step count still ends on the
        // final state.
        let mut y = vec![1.0];
        let (times, states) = integrate_sampled(&sys, &mut Rk4::new(0.01), 0.0, 1.0, &mut y, 7);
        assert_eq!(times[1], seen[7].0);
        assert_eq!(*times.last().unwrap(), t_end);
        assert_eq!(states.last().unwrap()[0], y[0]);
    }

    #[test]
    #[should_panic(expected = "step size must be positive")]
    fn rk4_rejects_zero_step() {
        let _ = Rk4::new(0.0);
    }

    #[test]
    fn integrate_reaches_target_time() {
        let sys = Decay { lambda: 1.0 };
        let mut y = vec![1.0];
        let t_end = integrate(&sys, &mut Rk4::new(0.3), 0.0, 1.0, &mut y);
        assert!((1.0..1.3 + 1e-12).contains(&t_end));
    }
}

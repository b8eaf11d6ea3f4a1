//! Ordinary differential equation integrators.
//!
//! Three steppers, selected by the character of the dynamics being simulated:
//!
//! * [`Rk4`] — classic fixed-step 4th-order Runge–Kutta; the workhorse for
//!   the VO₂ relaxation-oscillator circuits, whose time constants are known
//!   in advance.
//! * [`Rkf45`] — Runge–Kutta–Fehlberg 4(5) adaptive stepper with error
//!   control; used where stiffness varies during a run (locking sweeps).
//! * [`ClampedEuler`] — forward Euler with per-component box clamping; this
//!   is the integrator the digital-memcomputing literature uses, because DMM
//!   trajectories must respect hard bounds on memory variables (`x ∈ [0,1]`)
//!   and the dynamics are designed to be robust to integration error (the
//!   paper's §IV noise-robustness discussion).
//!
//! All steppers drive a user-supplied [`OdeSystem`], and three drivers run
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

/// A single-step integration scheme.
///
/// `step` advances `y` in place from time `t` and returns the new time. The
/// step size actually taken may differ from the nominal one for adaptive
/// steppers.
pub trait Stepper {
    /// Advances `y` by one step of the scheme, returning the new time.
    fn step<S: OdeSystem>(&mut self, system: &S, t: f64, y: &mut [f64]) -> f64;

    /// The step size the *next* call to `step` intends to take.
    fn step_size(&self) -> f64;
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
}

impl Stepper for Rk4 {
    fn step<S: OdeSystem>(&mut self, system: &S, t: f64, y: &mut [f64]) -> f64 {
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

    fn step_size(&self) -> f64 {
        self.h
    }
}

/// Runge–Kutta–Fehlberg 4(5) adaptive stepper.
///
/// Embedded 4th/5th-order pair with standard PI-free step-size control: the
/// step is retried with a smaller `h` until the scaled error estimate is
/// below 1, then `h` grows for the next step.
#[derive(Debug, Clone)]
pub struct Rkf45 {
    h: f64,
    h_min: f64,
    h_max: f64,
    /// Absolute error tolerance per step per component.
    pub tol: f64,
    work: Vec<Vec<f64>>,
    tmp: Vec<f64>,
    y5: Vec<f64>,
}

impl Rkf45 {
    /// Creates an adaptive stepper with initial step `h0`, bounds
    /// `[h_min, h_max]` and per-step absolute tolerance `tol`.
    ///
    /// # Panics
    ///
    /// Panics if `h0`, `h_min`, `h_max` are not positive or disordered, or if
    /// `tol` is not positive.
    #[must_use]
    pub fn new(h0: f64, h_min: f64, h_max: f64, tol: f64) -> Self {
        assert!(h_min > 0.0 && h_max >= h_min, "invalid step bounds");
        assert!(h0 >= h_min && h0 <= h_max, "h0 outside [h_min, h_max]");
        assert!(tol > 0.0, "tolerance must be positive");
        Rkf45 {
            h: h0,
            h_min,
            h_max,
            tol,
            work: vec![Vec::new(); 6],
            tmp: Vec::new(),
            y5: Vec::new(),
        }
    }

    fn ensure_dim(&mut self, n: usize) {
        if self.tmp.len() != n {
            for k in &mut self.work {
                k.resize(n, 0.0);
            }
            self.tmp.resize(n, 0.0);
            self.y5.resize(n, 0.0);
        }
    }
}

// Fehlberg coefficients.
const A: [f64; 5] = [1.0 / 4.0, 3.0 / 8.0, 12.0 / 13.0, 1.0, 1.0 / 2.0];
const B: [[f64; 5]; 5] = [
    [1.0 / 4.0, 0.0, 0.0, 0.0, 0.0],
    [3.0 / 32.0, 9.0 / 32.0, 0.0, 0.0, 0.0],
    [1932.0 / 2197.0, -7200.0 / 2197.0, 7296.0 / 2197.0, 0.0, 0.0],
    [439.0 / 216.0, -8.0, 3680.0 / 513.0, -845.0 / 4104.0, 0.0],
    [
        -8.0 / 27.0,
        2.0,
        -3544.0 / 2565.0,
        1859.0 / 4104.0,
        -11.0 / 40.0,
    ],
];
const C4: [f64; 6] = [
    25.0 / 216.0,
    0.0,
    1408.0 / 2565.0,
    2197.0 / 4104.0,
    -1.0 / 5.0,
    0.0,
];
const C5: [f64; 6] = [
    16.0 / 135.0,
    0.0,
    6656.0 / 12825.0,
    28561.0 / 56430.0,
    -9.0 / 50.0,
    2.0 / 55.0,
];

impl Stepper for Rkf45 {
    fn step<S: OdeSystem>(&mut self, system: &S, t: f64, y: &mut [f64]) -> f64 {
        let n = system.dim();
        self.ensure_dim(n);

        loop {
            let h = self.h;
            system.rhs(t, y, &mut self.work[0]);
            for stage in 0..5 {
                for i in 0..n {
                    let mut acc = 0.0;
                    for (j, b) in B[stage].iter().enumerate().take(stage + 1) {
                        acc += b * self.work[j][i];
                    }
                    self.tmp[i] = y[i] + h * acc;
                }
                let (head, tail) = self.work.split_at_mut(stage + 1);
                let _ = head;
                system.rhs(t + A[stage] * h, &self.tmp, &mut tail[0]);
            }

            // 4th- and 5th-order solutions and the error estimate.
            let mut err: f64 = 0.0;
            for i in 0..n {
                let mut y4 = y[i];
                let mut y5 = y[i];
                for k in 0..6 {
                    y4 += h * C4[k] * self.work[k][i];
                    y5 += h * C5[k] * self.work[k][i];
                }
                self.tmp[i] = y4;
                self.y5[i] = y5;
                err = err.max((y5 - y4).abs());
            }

            if err <= self.tol || self.h <= self.h_min {
                // Accept (propagate the higher-order solution).
                y.copy_from_slice(&self.y5);
                system.project(y);
                let t_new = t + h;
                // Grow the step for the next call.
                let scale = if err > 0.0 {
                    0.9 * (self.tol / err).powf(0.2)
                } else {
                    2.0
                };
                self.h = (self.h * scale.clamp(0.2, 2.0)).clamp(self.h_min, self.h_max);
                return t_new;
            }
            // Reject: shrink and retry.
            let scale = 0.9 * (self.tol / err).powf(0.25);
            self.h = (self.h * scale.clamp(0.1, 0.9)).max(self.h_min);
        }
    }

    fn step_size(&self) -> f64 {
        self.h
    }
}

/// Forward Euler with post-step projection.
///
/// Deliberately simple: digital-memcomputing dynamics are engineered so that
/// their attractors survive coarse integration (the paper's robustness
/// argument), and forward Euler with clamping is what the DMM literature
/// itself uses.
#[derive(Debug, Clone)]
pub struct ClampedEuler {
    h: f64,
    dy: Vec<f64>,
}

impl ClampedEuler {
    /// Creates a forward-Euler stepper with step size `h`.
    ///
    /// # Panics
    ///
    /// Panics if `h` is not finite and positive.
    #[must_use]
    pub fn new(h: f64) -> Self {
        assert!(h.is_finite() && h > 0.0, "step size must be positive");
        ClampedEuler { h, dy: Vec::new() }
    }
}

impl Stepper for ClampedEuler {
    fn step<S: OdeSystem>(&mut self, system: &S, t: f64, y: &mut [f64]) -> f64 {
        let n = system.dim();
        if self.dy.len() != n {
            self.dy.resize(n, 0.0);
        }
        system.rhs(t, y, &mut self.dy);
        for i in 0..n {
            y[i] += self.h * self.dy[i];
        }
        system.project(y);
        t + self.h
    }

    fn step_size(&self) -> f64 {
        self.h
    }
}

/// Integrates `system` from `t0` to at least `t1`, mutating `y` in place.
///
/// Returns the actual final time (≥ `t1`; the last step may overshoot by at
/// most one step size).
pub fn integrate<S: OdeSystem, P: Stepper>(
    system: &S,
    stepper: &mut P,
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
pub fn integrate_observed<S: OdeSystem, P: Stepper, F: FnMut(f64, &[f64])>(
    system: &S,
    stepper: &mut P,
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
pub fn integrate_sampled<S: OdeSystem, P: Stepper>(
    system: &S,
    stepper: &mut P,
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
    fn rkf45_matches_rk4_with_fewer_steps() {
        let sys = Decay { lambda: 1.0 };
        let mut y = vec![1.0];
        let mut stepper = Rkf45::new(1e-4, 1e-8, 0.5, 1e-10);
        let mut t = 0.0;
        let mut steps = 0;
        while t < 5.0 {
            t = stepper.step(&sys, t, &mut y);
            steps += 1;
        }
        // Compare against the exact solution at the (possibly overshot) time.
        assert!(approx_eq(y[0], (-t).exp(), 1e-7));
        assert!(steps < 5000, "adaptive stepper took {steps} steps");
    }

    #[test]
    fn rkf45_grows_step() {
        let sys = Decay { lambda: 0.01 };
        let mut stepper = Rkf45::new(1e-4, 1e-8, 1.0, 1e-8);
        let mut y = vec![1.0];
        let mut t = 0.0;
        for _ in 0..20 {
            t = stepper.step(&sys, t, &mut y);
        }
        assert!(stepper.step_size() > 1e-4, "step did not grow");
        assert!(t > 0.0);
    }

    #[test]
    fn clamped_euler_respects_projection() {
        let mut y = vec![0.0];
        integrate(&Clamped, &mut ClampedEuler::new(0.1), 0.0, 10.0, &mut y);
        assert_eq!(y[0], 0.5);
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
    #[should_panic(expected = "invalid step bounds")]
    fn rkf45_rejects_bad_bounds() {
        let _ = Rkf45::new(1e-3, 1e-2, 1e-3, 1e-6);
    }

    #[test]
    fn integrate_reaches_target_time() {
        let sys = Decay { lambda: 1.0 };
        let mut y = vec![1.0];
        let t_end = integrate(&sys, &mut Rk4::new(0.3), 0.0, 1.0, &mut y);
        assert!((1.0..1.3 + 1e-12).contains(&t_end));
    }
}

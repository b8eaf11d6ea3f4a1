//! Graph vertex colouring by coupled-oscillator phase dynamics.
//!
//! §III cites "vertex coloring of graphs \[via\] phase dynamics of coupled
//! oscillatory networks" (Parihar, Shukla, Jerry, Datta & Raychowdhury,
//! *Scientific Reports* 2017, the paper's ref. \[42\]): identical oscillators
//! coupled along the edges of a graph repel each other in phase, so
//! adjacent vertices end up phase-separated, and rounding phases into `k`
//! sectors yields a (heuristic) `k`-colouring.
//!
//! [`color_graph`] runs that computation on the *phase-reduced* model of
//! the circuit fabric ([`crate::network::OscillatorGraph`]). Each vertex is
//! one phase `θᵢ`, advanced by a fixed explicit-Euler schedule
//! ([`STEPS`] steps of `DT`):
//!
//! ```text
//! dθᵢ/dτ = Σ_{j ~ i} sin(θᵢ − θⱼ) − K_s(τ)·sin(k·θᵢ),    k = n_colors
//! ```
//!
//! * The first term is repulsive Kuramoto coupling along the edges: the
//!   fundamental of the calibrated pair's coupling function, which pushes
//!   a coupled pair to anti-phase.
//! * The second term is sub-harmonic injection locking: a weak `k`-th
//!   harmonic drive makes `k` equally spaced phases stable, which nothing
//!   in the free fabric does. Strong injection freezes the random start in
//!   place, so `K_s` is weak (`INJECTION`) and ramps up from 0 over the
//!   first part of the schedule (`INJECTION_RAMP`).
//! * The start is drawn from [`ColoringConfig::seed`]; the colour of
//!   vertex `i` is `round(k·θᵢ/2π) mod k`.
//!
//! The ignored `measure_pair_coupling` generator below measures the pair's
//! whole coupling function from the circuit model. Its higher harmonics
//! make three phases unstable: served in place of `sin`, it colours 7 of
//! `answer_quality`'s 32 graphs where `sin` colours all 32 (DIVERGENCES.md),
//! so only its fundamental is served. The fundamental also fixes the time
//! unit `τ`: how far per oscillation period a pair's phase difference
//! moves, so the schedule lasts a fixed number of periods, and
//! [`settle_seconds`] is that number times the pair's measured period.
//!
//! # Example
//!
//! ```
//! use osc::coloring::{color_graph, ColoringConfig};
//!
//! // A 4-cycle is 2-colourable; anti-phase ordering finds it.
//! let edges = [(0, 1), (1, 2), (2, 3), (3, 0)];
//! let result = color_graph(4, &edges, &ColoringConfig::default())?;
//! assert_eq!(result.conflicts, 0);
//! # Ok::<(), osc::OscError>(())
//! ```

use crate::norms::NormRegime;
use crate::pair::PairConfig;
use crate::OscError;
use device::units::{Seconds, Volts};
use numerics::rng::{rng_from_seed, Rng};
use std::f64::consts::TAU;

/// Euler steps of the fixed schedule.
pub const STEPS: usize = 500;

/// Euler step, in coupling time units.
pub(crate) const DT: f64 = 0.1;

/// Peak sub-harmonic injection strength `K_s`, in units of the coupling.
pub(crate) const INJECTION: f64 = 0.5;

/// Fraction of the schedule over which `K_s` ramps linearly up from 0.
pub(crate) const INJECTION_RAMP: f64 = 0.5;

/// How far per oscillation period one unit of `sin` coupling moves a
/// phase, in radians: half the fundamental of the default pair's measured
/// `dφ/dt` (a pair's phase difference feels both cells' pull). The coupling
/// time unit is `1 / this` periods. From `measure_pair_coupling`.
const COUPLING_RAD_PER_PERIOD: f64 = 0.1243;

/// The oscillation period of the default pair, locked at equal inputs of
/// 0.62 V. From `measure_pair_coupling`.
const PAIR_PERIOD_S: f64 = 3.7812e-8;

/// Modelled device time of one colouring: the fixed schedule's length in
/// oscillator periods times the pair's period. Every run takes the same
/// schedule, so this is both the estimate and the report.
#[must_use]
pub fn settle_seconds() -> f64 {
    STEPS as f64 * DT / COUPLING_RAD_PER_PERIOD * PAIR_PERIOD_S
}

/// Configuration of a phase-colouring run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ColoringConfig {
    /// The oscillator fabric the phase model reduces (cells are identical;
    /// coupling along edges). Only its bias is checked: the coupling
    /// strength and period are constants measured for the default pair.
    pub pair: PairConfig,
    /// Gate voltage shared by every cell.
    pub v_gs: f64,
    /// Number of colors (phase sectors) to round into.
    pub n_colors: usize,
    /// Seed of the random start.
    pub seed: u64,
}

impl Default for ColoringConfig {
    fn default() -> Self {
        let mut pair = NormRegime::Shallow.config();
        // The fabric window the benchmark's `osc.oscillator_steps_per_s`
        // integrates; the phase model does not read it.
        pair.sim.duration = Seconds(4e-6);
        ColoringConfig {
            pair,
            v_gs: 0.62,
            n_colors: 2,
            seed: 0,
        }
    }
}

/// Result of a phase-coloring run.
#[derive(Debug, Clone, PartialEq)]
pub struct ColoringResult {
    /// The color assigned to each vertex (`0..n_colors`).
    pub colors: Vec<usize>,
    /// The final phase of each vertex, radians in `[0, 2π)`.
    pub phases: Vec<f64>,
    /// Number of edges whose endpoints share a color (0 = proper coloring).
    pub conflicts: usize,
}

fn invalid(what: &'static str) -> OscError {
    OscError::Numerics(numerics::NumericsError::InvalidArgument { what })
}

/// Colours a graph with the seeded phase-reduced oscillator model (module
/// docs) and counts the edges it leaves monochromatic.
///
/// This is a heuristic: like the hardware it models, it can leave
/// conflicts on a colourable graph; another seed is another try.
///
/// # Errors
///
/// * [`OscError::Numerics`] for fewer than 2 vertices, an edge that does
///   not join two distinct vertices, or no colours.
/// * [`OscError::NoOscillation`] (or another device error) when `v_gs`
///   does not bias the cells into oscillation.
pub fn color_graph(
    n_vertices: usize,
    edges: &[(usize, usize)],
    config: &ColoringConfig,
) -> Result<ColoringResult, OscError> {
    if n_vertices < 2 {
        return Err(OscError::Numerics(
            numerics::NumericsError::InsufficientData {
                required: 2,
                provided: n_vertices,
            },
        ));
    }
    if edges
        .iter()
        .any(|&(a, b)| a >= n_vertices || b >= n_vertices || a == b)
    {
        return Err(invalid("graph edges must join two distinct existing cells"));
    }
    if config.n_colors == 0 {
        return Err(invalid("a colouring needs at least one colour"));
    }
    config.pair.osc.checked_bias(Volts(config.v_gs))?;
    let phases = settle(n_vertices, edges, config);
    let colors: Vec<usize> = phases
        .iter()
        .map(|p| ((config.n_colors as f64 * p / TAU).round() as usize) % config.n_colors)
        .collect();
    let conflicts = edges
        .iter()
        .filter(|&&(a, b)| colors[a] == colors[b])
        .count();
    Ok(ColoringResult {
        colors,
        phases,
        conflicts,
    })
}

/// Runs the fixed schedule from the seeded start and returns the final
/// phases in `[0, 2π)`.
fn settle(n_vertices: usize, edges: &[(usize, usize)], config: &ColoringConfig) -> Vec<f64> {
    let k = config.n_colors as f64;
    let mut rng = rng_from_seed(config.seed);
    let mut theta: Vec<f64> = (0..n_vertices).map(|_| rng.gen::<f64>() * TAU).collect();
    let mut trig = vec![(0.0, 0.0); n_vertices];
    let mut drift = vec![0.0; n_vertices];
    let ramp_steps = INJECTION_RAMP * STEPS as f64;
    for step in 0..STEPS {
        let strength = if (step as f64) < ramp_steps {
            INJECTION * step as f64 / ramp_steps
        } else {
            INJECTION
        };
        for ((t, sc), d) in theta.iter().zip(&mut trig).zip(&mut drift) {
            *sc = t.sin_cos();
            *d = -strength * (k * t).sin();
        }
        for &(a, b) in edges {
            let (sa, ca) = trig[a];
            let (sb, cb) = trig[b];
            // sin(θa − θb) from the two unit vectors.
            let pull = sa * cb - ca * sb;
            drift[a] += pull;
            drift[b] -= pull;
        }
        for (t, d) in theta.iter_mut().zip(&drift) {
            *t += DT * d;
        }
    }
    theta
        .iter()
        .map(|t| {
            // `rem_euclid` rounds a tiny negative angle up to 2π itself.
            let phase = t.rem_euclid(TAU);
            if phase < TAU {
                phase
            } else {
                0.0
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(n_colors: usize, seed: u64) -> ColoringConfig {
        ColoringConfig {
            n_colors,
            seed,
            ..ColoringConfig::default()
        }
    }

    fn conflicts(edges: &[(usize, usize)], colors: &[usize]) -> usize {
        edges
            .iter()
            .filter(|&&(a, b)| colors[a] == colors[b])
            .count()
    }

    #[test]
    fn small_graphs_come_out_proper() {
        let k2 = [(0, 1)];
        let c4 = [(0, 1), (1, 2), (2, 3), (3, 0)];
        let k3 = [(0, 1), (1, 2), (0, 2)];
        for seed in 0..8 {
            for (n, edges, k) in [(2, &k2[..], 2), (4, &c4[..], 2), (3, &k3[..], 3)] {
                let result = color_graph(n, edges, &config(k, seed)).unwrap();
                assert_eq!(
                    result.conflicts, 0,
                    "{n} vertices, k = {k}, seed {seed}: {result:?}"
                );
                assert!(result.colors.iter().all(|&c| c < k));
            }
        }
        let result = color_graph(3, &k3, &config(3, 1)).unwrap();
        let mut distinct = result.colors.clone();
        distinct.sort_unstable();
        assert_eq!(distinct, vec![0, 1, 2]);
    }

    #[test]
    fn the_same_seed_gives_the_same_colours() {
        let mut edges: Vec<(usize, usize)> = (0..16).map(|v| (v, (v + 1) % 16)).collect();
        edges.extend([(0, 5), (3, 11)]);
        let a = color_graph(16, &edges, &config(3, 9)).unwrap();
        let b = color_graph(16, &edges, &config(3, 9)).unwrap();
        assert_eq!(a, b);
        let phases = |r: &ColoringResult| r.phases.iter().map(|p| p.to_bits()).collect::<Vec<_>>();
        assert_eq!(phases(&a), phases(&b));
        let other = color_graph(16, &edges, &config(3, 10)).unwrap();
        assert_ne!(phases(&a), phases(&other), "the seed draws the start");
    }

    #[test]
    fn reported_conflicts_equal_the_recomputed_count() {
        // K4 cannot be 3-coloured, so some runs must report conflicts.
        let k4 = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)];
        let mut seen_conflict = false;
        for seed in 0..6 {
            for (n, edges, k) in [(4, &k4[..], 3), (4, &k4[..], 2)] {
                let result = color_graph(n, edges, &config(k, seed)).unwrap();
                assert_eq!(result.conflicts, conflicts(edges, &result.colors));
                assert!(result.phases.iter().all(|p| (0.0..TAU).contains(p)));
                seen_conflict |= result.conflicts > 0;
            }
        }
        assert!(seen_conflict);
    }

    #[test]
    fn invalid_graph_rejected() {
        let cfg = config(2, 0);
        assert!(color_graph(2, &[(0, 2)], &cfg).is_err());
        assert!(color_graph(2, &[(1, 1)], &cfg).is_err());
        assert!(color_graph(1, &[], &cfg).is_err());
        assert!(color_graph(2, &[(0, 1)], &config(0, 0)).is_err());
        let unbiased = ColoringConfig { v_gs: 10.0, ..cfg };
        assert!(color_graph(2, &[(0, 1)], &unbiased).is_err());
    }

    /// The pair's coupling function as `measure_pair_coupling` printed it:
    /// sine coefficients `c₁ … c₆` of `h(φ) = Σ cₙ·sin(nφ)`, normalised to
    /// `c₁ = 1`.
    const PAIR_COUPLING_HARMONICS: [f64; 6] = [1.0, 0.0165, -0.1531, -0.2547, -0.1726, -0.0659];

    /// What one measurement of the default pair gives.
    struct PairMeasurement {
        /// Per-cycle samples `(φ, Δφ)` the fit was made from.
        samples: usize,
        /// RMS of the fit's residual, radians per period.
        residual: f64,
        /// `a₀`, then `(aₙ, bₙ)` of `Δφ ≈ a₀ + Σ aₙ·cos(nφ) + bₙ·sin(nφ)`.
        coefficients: Vec<f64>,
        /// Mean period of the pairs once locked, seconds.
        period: f64,
    }

    impl PairMeasurement {
        /// `bₙ / b₁`: the coupling function's shape.
        fn shape(&self) -> Vec<f64> {
            let b1 = self.coefficients[2];
            (1..=HARMONICS)
                .map(|n| self.coefficients[2 * n] / b1)
                .collect()
        }

        /// Half of `b₁`: one cell's share of the pair's pull.
        fn rad_per_period(&self) -> f64 {
            self.coefficients[2] / 2.0
        }
    }

    const HARMONICS: usize = 6;

    /// Measures the default pair's coupling function from the circuit model.
    ///
    /// Two identical cells start on their own limit cycle at `offsets`
    /// phase offsets `φ₀`, with the coupling capacitor at `v₁ − v₂` so no
    /// current spike opens the run. For identical cells the phase
    /// difference obeys `dφ/dt = G(φ)` per period, with `G` odd: each
    /// cycle of each run gives one sample of the per-period step `Δφ` at
    /// the cycle's mid-phase, and a least-squares fit of `Δφ` to a Fourier
    /// series gives `G`'s coefficients. The cosine terms come out near zero
    /// (identical cells make `G` odd). The network model's `h` is `G`
    /// normalised to a unit fundamental, and one cell's share of the pull
    /// is half of `G`. The period is the pairs' mean once locked.
    fn measure_pair(offsets: usize) -> PairMeasurement {
        use crate::pair::CoupledPair;
        use crate::relaxation::{SingleOscillator, STATE_VARS};
        use numerics::ode::{integrate_observed, Rk4};
        use numerics::signal::rising_crossings;
        use std::f64::consts::PI;

        const CYCLES: usize = 12;

        let base = ColoringConfig::default();
        let pair_config = base.pair;
        let dt = pair_config.sim.dt.0;
        let level = pair_config.osc.readout_threshold().0;

        // One limit cycle of a lone cell, state by state.
        let cell = SingleOscillator::new(pair_config.osc, Volts(base.v_gs)).unwrap();
        let mut y = vec![0.0; STATE_VARS];
        let mut states: Vec<Vec<f64>> = Vec::new();
        integrate_observed(&cell, &mut Rk4::new(dt), 0.0, 3e-6, &mut y, |_, s| {
            states.push(s.to_vec());
        });
        let volts: Vec<f64> = states.iter().map(|s| s[0]).collect();
        let crossings = rising_crossings(&volts, level);
        let (first, last) = (
            crossings[crossings.len() - 3],
            crossings[crossings.len() - 2],
        );
        let cycle = &states[first.ceil() as usize..last.ceil() as usize];
        let free_period = (last - first) * dt;

        let pair = CoupledPair::new(pair_config, Volts(base.v_gs), Volts(base.v_gs)).unwrap();
        let mut samples: Vec<(f64, f64)> = Vec::new();
        let mut locked_periods: Vec<f64> = Vec::new();
        for o in 0..offsets {
            let offset = o * cycle.len() / offsets;
            let mut y = Vec::with_capacity(2 * STATE_VARS + 1);
            y.extend_from_slice(&cycle[0]);
            y.extend_from_slice(&cycle[offset]);
            y.push(cycle[0][0] - cycle[offset][0]);
            let (mut v1, mut v2) = (Vec::new(), Vec::new());
            integrate_observed(
                &pair,
                &mut Rk4::new(dt),
                0.0,
                CYCLES as f64 * free_period,
                &mut y,
                |_, s| {
                    v1.push(s[0]);
                    v2.push(s[STATE_VARS]);
                },
            );
            let (c1, c2) = (rising_crossings(&v1, level), rising_crossings(&v2, level));
            // How far cell 2 lags cell 1 at each of cell 1's cycles. (`G`
            // is odd, so the lag obeys the same law as the lead.)
            let lags: Vec<f64> = c1
                .windows(2)
                .filter_map(|w| {
                    let u = c2.iter().find(|&&u| u >= w[0] && u < w[1])?;
                    Some(TAU * (u - w[0]) / (w[1] - w[0]))
                })
                .collect();
            for w in lags.windows(2) {
                let step = (w[1] - w[0] + PI).rem_euclid(TAU) - PI;
                samples.push(((w[0] + step / 2.0).rem_euclid(TAU), step));
            }
            let tail = &c1[c1.len() - 4..];
            locked_periods.push((tail[3] - tail[0]) / 3.0 * dt);
        }

        // Least squares on [1, cos nφ, sin nφ] by the normal equations.
        let width = 1 + 2 * HARMONICS;
        let basis = |phi: f64| -> Vec<f64> {
            let mut row = vec![1.0];
            for n in 1..=HARMONICS {
                row.push((n as f64 * phi).cos());
                row.push((n as f64 * phi).sin());
            }
            row
        };
        let mut ata = vec![vec![0.0; width]; width];
        let mut atb = vec![0.0; width];
        for &(phi, step) in &samples {
            let row = basis(phi);
            for i in 0..width {
                atb[i] += row[i] * step;
                for j in 0..width {
                    ata[i][j] += row[i] * row[j];
                }
            }
        }
        // Gauss–Jordan elimination with partial pivoting.
        for col in 0..width {
            let pivot = (col..width)
                .max_by(|&a, &b| ata[a][col].abs().total_cmp(&ata[b][col].abs()))
                .unwrap();
            ata.swap(col, pivot);
            atb.swap(col, pivot);
            for r in 0..width {
                if r != col {
                    let f = ata[r][col] / ata[col][col];
                    for c in col..width {
                        ata[r][c] -= f * ata[col][c];
                    }
                    atb[r] -= f * atb[col];
                }
            }
        }
        let coefficients: Vec<f64> = (0..width).map(|i| atb[i] / ata[i][i]).collect();
        let residual = samples
            .iter()
            .map(|&(phi, step)| {
                let fit: f64 = basis(phi)
                    .iter()
                    .zip(&coefficients)
                    .map(|(b, c)| b * c)
                    .sum();
                (fit - step).powi(2)
            })
            .sum::<f64>()
            / samples.len() as f64;
        PairMeasurement {
            samples: samples.len(),
            residual: residual.sqrt(),
            coefficients,
            period: locked_periods.iter().sum::<f64>() / locked_periods.len() as f64,
        }
    }

    #[test]
    fn the_checked_in_pair_constants_match_the_circuit_model() {
        // A coarser measurement than the generator's, so that a change of
        // the default pair shows here and not only when someone reruns it.
        let m = measure_pair(48);
        assert!(m.residual < 0.02, "{}", m.residual);
        let close = |got: f64, want: f64, tol: f64| (got - want).abs() <= tol;
        assert!(
            close(m.rad_per_period(), COUPLING_RAD_PER_PERIOD, 0.01),
            "{}",
            m.rad_per_period()
        );
        assert!(
            close(m.period, PAIR_PERIOD_S, 0.01 * PAIR_PERIOD_S),
            "{}",
            m.period
        );
        for (got, want) in m.shape().iter().zip(PAIR_COUPLING_HARMONICS) {
            assert!(close(*got, want, 0.05), "{:?}", m.shape());
        }
        // Identical cells: no cosine terms to speak of.
        for n in 0..=HARMONICS {
            assert!(m.coefficients[2 * n.max(1) - 1].abs() < 0.02 * m.coefficients[2]);
        }
    }

    /// Prints the constants the checked-in ones come from.
    ///
    /// ```text
    /// cargo test --release -p osc measure_pair_coupling -- --ignored --nocapture
    /// ```
    #[test]
    #[ignore = "generator, not a check"]
    fn measure_pair_coupling() {
        let m = measure_pair(256);
        println!("{} samples, rms residual {:.3e} rad", m.samples, m.residual);
        println!("offset term {:+.4e}", m.coefficients[0]);
        for n in 1..=HARMONICS {
            println!(
                "n = {n}: cos {:+.4e}  sin {:+.4e}",
                m.coefficients[2 * n - 1],
                m.coefficients[2 * n]
            );
        }
        let shape: Vec<String> = m.shape().iter().map(|c| format!("{c:.4}")).collect();
        println!(
            "const PAIR_COUPLING_HARMONICS: [f64; {HARMONICS}] = [{}];",
            shape.join(", ")
        );
        println!(
            "const COUPLING_RAD_PER_PERIOD: f64 = {:.4};",
            m.rad_per_period()
        );
        println!("const PAIR_PERIOD_S: f64 = {:.4e};", m.period);
    }
}

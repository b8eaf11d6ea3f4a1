//! The graph-coupled oscillator fabric.
//!
//! [`OscillatorGraph`] couples `N` identical cells through identical RC
//! branches along an undirected edge list; its mean phases are what the
//! phase-computing applications read. Served vertex colouring runs on its
//! phase-reduced model instead ([`crate::coloring`]).
//!
//! # Example
//!
//! ```no_run
//! use osc::network::OscillatorGraph;
//! use osc::pair::PairConfig;
//!
//! // Four identical cells in a ring; read one cell's frequency.
//! let edges = [(0, 1), (1, 2), (2, 3), (3, 0)];
//! let graph = OscillatorGraph::new(PairConfig::default(), &[0.62; 4], &edges)?;
//! let frequency = graph.simulate(PairConfig::default().sim)?.frequency(3)?;
//! assert!(frequency > 0.0);
//! # Ok::<(), osc::OscError>(())
//! ```

use crate::pair::PairConfig;
use crate::relaxation::{oscillator_project, oscillator_rhs, OscRun, SimConfig, STATE_VARS};
use crate::OscError;
use device::units::Volts;
use numerics::ode::OdeSystem;

/// The initial state of a fabric run: node voltages spread evenly across
/// the hysteresis window, everything else zero.
fn staggered_start(config: &PairConfig, n: usize, dim: usize) -> Vec<f64> {
    let mut y = vec![0.0; dim];
    let window = config.osc.vo2.hysteresis_window().0;
    let base = config.osc.vo2.v_mit.0;
    for i in 0..n {
        y[i * STATE_VARS] = base + window * (i as f64 / n as f64);
    }
    y
}

/// `N` identical oscillator cells coupled through identical RC branches
/// along an arbitrary undirected edge list — the fabric behind the
/// phase-dynamics applications the paper cites (vertex coloring, ref.
/// \[42\]; associative arrays, ref. \[39\]).
///
/// State layout: `N` cells of `[v, f, m]` followed by one coupling-capacitor
/// voltage per edge.
#[derive(Debug, Clone, PartialEq)]
pub struct OscillatorGraph {
    config: PairConfig,
    edges: Vec<(usize, usize)>,
    r_series: Vec<f64>,
    n: usize,
}

impl OscillatorGraph {
    /// Creates a graph-coupled fabric with per-cell gate voltages and an
    /// undirected edge list.
    ///
    /// # Errors
    ///
    /// * [`OscError::Numerics`] for fewer than 2 cells, self-loops, or
    ///   out-of-range edges.
    /// * Propagates bias validation per cell.
    pub fn new(
        config: PairConfig,
        v_gs: &[f64],
        edges: &[(usize, usize)],
    ) -> Result<Self, OscError> {
        if v_gs.len() < 2 {
            return Err(OscError::Numerics(
                numerics::NumericsError::InsufficientData {
                    required: 2,
                    provided: v_gs.len(),
                },
            ));
        }
        for &(a, b) in edges {
            if a >= v_gs.len() || b >= v_gs.len() || a == b {
                return Err(OscError::Numerics(
                    numerics::NumericsError::InvalidArgument {
                        what: "graph edges must join two distinct existing cells",
                    },
                ));
            }
        }
        let r_series = v_gs
            .iter()
            .map(|&v| config.osc.checked_bias(Volts(v)).map(|r| r.0))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(OscillatorGraph {
            config,
            edges: edges.to_vec(),
            n: v_gs.len(),
            r_series,
        })
    }

    /// Simulates the fabric with staggered initial node voltages (cells
    /// start spread across the hysteresis window so phase ordering is a
    /// dynamical outcome).
    ///
    /// # Errors
    ///
    /// Kept fallible for interface parity; currently always succeeds.
    pub fn simulate(&self, sim: SimConfig) -> Result<OscRun, OscError> {
        let mut y = staggered_start(&self.config, self.n, self.dim());
        Ok(OscRun::record(
            self,
            &mut y,
            sim,
            self.n,
            self.config.osc.readout_threshold(),
        ))
    }
}

impl OdeSystem for OscillatorGraph {
    fn dim(&self) -> usize {
        self.n * STATE_VARS + self.edges.len()
    }

    /// The net coupling current leaving each node is accumulated, in edge
    /// order, in the node's own `dv` slot of `dy` — zeroed first, then read
    /// as the cell's extra current — so an evaluation allocates nothing.
    fn rhs(&self, _t: f64, y: &[f64], dy: &mut [f64]) {
        let config = &self.config;
        let vc_base = self.n * STATE_VARS;
        for i in 0..self.n {
            dy[i * STATE_VARS] = 0.0;
        }
        for (b, &(i, j)) in self.edges.iter().enumerate() {
            let vi = y[i * STATE_VARS];
            let vj = y[j * STATE_VARS];
            let vc = y[vc_base + b];
            let i_c = (vi - vj - vc) / config.coupling.r_c().0;
            dy[i * STATE_VARS] += i_c;
            dy[j * STATE_VARS] -= i_c;
            dy[vc_base + b] = i_c / config.coupling.c_c().0;
        }
        for (i, &r) in self.r_series.iter().enumerate() {
            let s = i * STATE_VARS;
            let i_extra = dy[s];
            oscillator_rhs(
                &config.osc,
                r,
                &y[s..s + STATE_VARS],
                &mut dy[s..s + STATE_VARS],
                i_extra,
            );
        }
    }

    fn project(&self, y: &mut [f64]) {
        for i in 0..self.n {
            let s = i * STATE_VARS;
            oscillator_project(&self.config.osc, &mut y[s..s + STATE_VARS]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use device::units::Seconds;

    fn quick_config() -> PairConfig {
        let mut cfg = PairConfig::default();
        cfg.sim.duration = Seconds(2e-6);
        cfg
    }

    #[test]
    fn rhs_equals_the_form_with_a_current_vector_of_its_own() {
        // The right-hand side as it was: net coupling currents summed in a
        // freshly allocated vector, then handed to each cell.
        fn reference(graph: &OscillatorGraph, y: &[f64], dy: &mut [f64]) {
            let vc_base = graph.n * STATE_VARS;
            let mut i_extra = vec![0.0; graph.n];
            for (b, &(i, j)) in graph.edges.iter().enumerate() {
                let i_c = (y[i * STATE_VARS] - y[j * STATE_VARS] - y[vc_base + b])
                    / graph.config.coupling.r_c().0;
                i_extra[i] += i_c;
                i_extra[j] -= i_c;
                dy[vc_base + b] = i_c / graph.config.coupling.c_c().0;
            }
            for i in 0..graph.n {
                let s = i * STATE_VARS;
                oscillator_rhs(
                    &graph.config.osc,
                    graph.r_series[i],
                    &y[s..s + STATE_VARS],
                    &mut dy[s..s + STATE_VARS],
                    i_extra[i],
                );
            }
        }
        use numerics::rng::{rng_from_seed, Rng};
        let mut rng = rng_from_seed(4);
        let mut edges: Vec<(usize, usize)> = (0..9).map(|v| (v, (v + 1) % 9)).collect();
        edges.extend([(0, 4), (7, 2), (4, 0)]);
        let graph = OscillatorGraph::new(quick_config(), &[0.62; 9], &edges).unwrap();
        for _ in 0..200 {
            let y: Vec<f64> = (0..graph.dim()).map(|_| rng.gen_range(-0.5..2.5)).collect();
            // Stale derivatives from an earlier stage must not leak in.
            let mut got: Vec<f64> = (0..graph.dim()).map(|_| rng.gen_range(-1e9..1e9)).collect();
            let mut expected = got.clone();
            graph.rhs(0.0, &y, &mut got);
            reference(&graph, &y, &mut expected);
            for (g, e) in got.iter().zip(&expected) {
                assert_eq!(g.to_bits(), e.to_bits());
            }
        }
    }

    #[test]
    fn fabric_waveforms_equal_whole_state_sampling_bit_for_bit() {
        use crate::relaxation::tests::assert_same_waveforms;
        let cfg = quick_config();
        let mut edges: Vec<(usize, usize)> = (0..16).map(|v| (v, (v + 1) % 16)).collect();
        edges.extend([(0, 5), (3, 11), (12, 7)]);
        let graph = OscillatorGraph::new(cfg, &[0.62; 16], &edges).unwrap();
        let start = staggered_start(&cfg, 16, graph.dim());
        assert_same_waveforms(&graph, start, cfg.sim, &graph.simulate(cfg.sim).unwrap());
    }
}

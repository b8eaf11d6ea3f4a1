//! Oscillator arrays: comparison fabrics and coupled chains.
//!
//! Two fabric shapes back the paper's claims:
//!
//! * [`PairArray`] — a bank of independent coupled pairs, the "16
//!   surrounding pixels" comparison fabric of the FAST dataflow (Fig. 6):
//!   each pair compares the pixel under test against one ring pixel, all
//!   banks operating in parallel.
//! * [`OscillatorChain`] — `N` cells coupled nearest-neighbour in a chain or
//!   ring, reproducing the synchronization behaviour the paper cites from
//!   ref. \[39\]: "an array of weakly coupled oscillators is shown to
//!   synchronize when coupled together with close initial states".
//!
//! # Example
//!
//! ```no_run
//! use osc::network::OscillatorChain;
//! use osc::pair::PairConfig;
//!
//! // Five nearly identical cells in a ring: all lock to a common frequency.
//! let chain = OscillatorChain::ring(PairConfig::default(), &[0.62; 5])?;
//! let run = chain.simulate_default()?;
//! assert!(run.is_synchronized(0.01)?);
//! # Ok::<(), osc::OscError>(())
//! ```

use crate::pair::{CoupledPair, PairConfig};
use crate::readout::XorReadout;
use crate::relaxation::{oscillator_project, oscillator_rhs, OscRun, SimConfig, STATE_VARS};
use crate::OscError;
use device::units::Volts;
use numerics::ode::OdeSystem;
use numerics::signal;

/// A bank of independent coupled pairs evaluated with a common readout.
#[derive(Debug, Clone, PartialEq)]
pub struct PairArray {
    config: PairConfig,
    readout: XorReadout,
}

impl PairArray {
    /// Creates an array with the whole-run readout.
    #[must_use]
    pub fn new(config: PairConfig) -> Self {
        PairArray {
            config,
            readout: XorReadout::new(0),
        }
    }

    /// Replaces the readout window.
    #[must_use]
    pub fn with_readout(mut self, readout: XorReadout) -> Self {
        self.readout = readout;
        self
    }

    /// Compares each `(a, b)` gate-voltage pair and returns the XOR
    /// measures, simulating each pair bank independently.
    ///
    /// # Errors
    ///
    /// Propagates bias-validation and simulation errors; fails on the first
    /// offending pair.
    pub fn compare_all(&self, inputs: &[(Volts, Volts)]) -> Result<Vec<f64>, OscError> {
        inputs
            .iter()
            .map(|&(a, b)| {
                let pair = CoupledPair::new(self.config, a, b)?;
                let run = pair.simulate_default()?;
                self.readout.measure(&run)
            })
            .collect()
    }
}

/// The right-hand side shared by [`OscillatorGraph`] and
/// [`OscillatorChain`]: `r_series.len()` cells of `[v, f, m]` followed by
/// one coupling-capacitor voltage per branch, branch `b` joining cells
/// `branches[b]`.
///
/// The net coupling current leaving each node is accumulated, in branch
/// order, in the node's own `dv` slot of `dy` — zeroed first, then read as
/// the cell's extra current — so an evaluation allocates nothing.
fn coupled_rhs(
    config: &PairConfig,
    r_series: &[f64],
    branches: impl Iterator<Item = (usize, usize)>,
    y: &[f64],
    dy: &mut [f64],
) {
    let vc_base = r_series.len() * STATE_VARS;
    for i in 0..r_series.len() {
        dy[i * STATE_VARS] = 0.0;
    }
    for (b, (i, j)) in branches.enumerate() {
        let vi = y[i * STATE_VARS];
        let vj = y[j * STATE_VARS];
        let vc = y[vc_base + b];
        let i_c = (vi - vj - vc) / config.coupling.r_c().0;
        dy[i * STATE_VARS] += i_c;
        dy[j * STATE_VARS] -= i_c;
        dy[vc_base + b] = i_c / config.coupling.c_c().0;
    }
    for (i, &r) in r_series.iter().enumerate() {
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

/// Coupling topology of an [`OscillatorChain`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Topology {
    /// Open chain: cell `i` couples to `i+1`.
    Chain,
    /// Closed ring: additionally couples last to first.
    Ring,
}

/// `N` identical oscillator cells coupled through identical RC branches
/// along an arbitrary undirected edge list — the fabric behind the
/// phase-dynamics applications the paper cites (vertex coloring, ref.
/// \[42\]; associative arrays, ref. \[39\]).
///
/// State layout matches [`OscillatorChain`]: `N` cells of `[v, f, m]`
/// followed by one coupling-capacitor voltage per edge.
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

    /// Number of cells.
    #[must_use]
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` when the fabric has no cells (not constructible).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The coupling edges.
    #[must_use]
    pub fn edges(&self) -> &[(usize, usize)] {
        &self.edges
    }

    /// Simulates the fabric with staggered initial node voltages (cells
    /// start spread across the hysteresis window so phase ordering is a
    /// dynamical outcome).
    ///
    /// # Errors
    ///
    /// Kept fallible for interface parity; currently always succeeds.
    pub fn simulate(&self, sim: SimConfig) -> Result<ChainRun, OscError> {
        let mut y = staggered_start(&self.config, self.n, self.dim());
        let run = OscRun::record(
            self,
            &mut y,
            sim,
            self.n,
            self.config.osc.readout_threshold(),
        );
        Ok(ChainRun { run })
    }

    /// Simulates with the configuration's [`SimConfig`].
    ///
    /// # Errors
    ///
    /// See [`OscillatorGraph::simulate`].
    pub fn simulate_default(&self) -> Result<ChainRun, OscError> {
        self.simulate(self.config.sim)
    }
}

impl OdeSystem for OscillatorGraph {
    fn dim(&self) -> usize {
        self.n * STATE_VARS + self.edges.len()
    }

    fn rhs(&self, _t: f64, y: &[f64], dy: &mut [f64]) {
        coupled_rhs(
            &self.config,
            &self.r_series,
            self.edges.iter().copied(),
            y,
            dy,
        );
    }

    fn project(&self, y: &mut [f64]) {
        for i in 0..self.n {
            let s = i * STATE_VARS;
            oscillator_project(&self.config.osc, &mut y[s..s + STATE_VARS]);
        }
    }
}

/// `N` oscillator cells coupled nearest-neighbour through identical RC
/// branches.
///
/// State layout: `N` cells of `[v, f, m]` followed by one coupling-capacitor
/// voltage per branch.
#[derive(Debug, Clone, PartialEq)]
pub struct OscillatorChain {
    config: PairConfig,
    topology: Topology,
    r_series: Vec<f64>,
    n: usize,
}

impl OscillatorChain {
    /// Creates an open chain with per-cell input gate voltages.
    ///
    /// # Errors
    ///
    /// * [`OscError::Numerics`] when fewer than 2 cells are requested.
    /// * Propagates bias validation per cell.
    pub fn chain(config: PairConfig, v_gs: &[f64]) -> Result<Self, OscError> {
        Self::with_topology(config, v_gs, Topology::Chain)
    }

    /// Creates a closed ring with per-cell input gate voltages.
    ///
    /// # Errors
    ///
    /// Same conditions as [`OscillatorChain::chain`].
    pub fn ring(config: PairConfig, v_gs: &[f64]) -> Result<Self, OscError> {
        Self::with_topology(config, v_gs, Topology::Ring)
    }

    fn with_topology(
        config: PairConfig,
        v_gs: &[f64],
        topology: Topology,
    ) -> Result<Self, OscError> {
        if v_gs.len() < 2 {
            return Err(OscError::Numerics(
                numerics::NumericsError::InsufficientData {
                    required: 2,
                    provided: v_gs.len(),
                },
            ));
        }
        let r_series = v_gs
            .iter()
            .map(|&v| config.osc.checked_bias(Volts(v)).map(|r| r.0))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(OscillatorChain {
            config,
            topology,
            n: v_gs.len(),
            r_series,
        })
    }

    /// Number of cells.
    #[must_use]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Returns `true` for an empty chain (never constructible; for API
    /// completeness).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The coupling topology.
    #[must_use]
    pub fn topology(&self) -> Topology {
        self.topology
    }

    fn n_branches(&self) -> usize {
        match self.topology {
            Topology::Chain => self.n - 1,
            Topology::Ring => self.n,
        }
    }

    /// Branch endpoints `(i, j)` for branch index `b`.
    fn branch(&self, b: usize) -> (usize, usize) {
        (b, (b + 1) % self.n)
    }

    /// Simulates the chain.
    ///
    /// Initial node voltages are staggered across the hysteresis window so
    /// the cells start out of phase and synchronization is a dynamical
    /// outcome, not an artefact of identical initial conditions.
    ///
    /// # Errors
    ///
    /// Kept fallible for interface parity; currently always succeeds.
    pub fn simulate(&self, sim: SimConfig) -> Result<ChainRun, OscError> {
        let mut y = staggered_start(&self.config, self.n, self.dim());
        let run = OscRun::record(
            self,
            &mut y,
            sim,
            self.n,
            self.config.osc.readout_threshold(),
        );
        Ok(ChainRun { run })
    }

    /// Simulates with the configuration's [`SimConfig`].
    ///
    /// # Errors
    ///
    /// See [`OscillatorChain::simulate`].
    pub fn simulate_default(&self) -> Result<ChainRun, OscError> {
        self.simulate(self.config.sim)
    }
}

impl OdeSystem for OscillatorChain {
    fn dim(&self) -> usize {
        self.n * STATE_VARS + self.n_branches()
    }

    fn rhs(&self, _t: f64, y: &[f64], dy: &mut [f64]) {
        let branches = (0..self.n_branches()).map(|b| self.branch(b));
        coupled_rhs(&self.config, &self.r_series, branches, y, dy);
    }

    fn project(&self, y: &mut [f64]) {
        for i in 0..self.n {
            let s = i * STATE_VARS;
            oscillator_project(&self.config.osc, &mut y[s..s + STATE_VARS]);
        }
    }
}

/// Recorded waveforms of a chain run.
#[derive(Debug, Clone, PartialEq)]
pub struct ChainRun {
    run: OscRun,
}

impl ChainRun {
    /// The underlying multichannel [`OscRun`].
    #[must_use]
    pub fn as_run(&self) -> &OscRun {
        &self.run
    }

    /// Per-cell frequencies.
    ///
    /// # Errors
    ///
    /// Propagates frequency-estimation errors per cell.
    pub fn frequencies(&self) -> Result<Vec<f64>, OscError> {
        (0..self.run.n_oscillators())
            .map(|i| self.run.frequency(i))
            .collect()
    }

    /// Whether all cells locked to a common frequency within `rel_tol` of
    /// the mean.
    ///
    /// # Errors
    ///
    /// Propagates frequency-estimation errors.
    pub fn is_synchronized(&self, rel_tol: f64) -> Result<bool, OscError> {
        let freqs = self.frequencies()?;
        let mean = freqs.iter().sum::<f64>() / freqs.len() as f64;
        Ok(freqs.iter().all(|f| ((f - mean) / mean).abs() <= rel_tol))
    }

    /// The spread `max(f) − min(f)` relative to the mean frequency.
    ///
    /// # Errors
    ///
    /// Propagates frequency-estimation errors.
    pub fn frequency_spread(&self) -> Result<f64, OscError> {
        let freqs = self.frequencies()?;
        let mean = freqs.iter().sum::<f64>() / freqs.len() as f64;
        let max = freqs.iter().cloned().fold(f64::MIN, f64::max);
        let min = freqs.iter().cloned().fold(f64::MAX, f64::min);
        Ok((max - min) / mean)
    }

    /// Each cell's mean phase relative to cell `reference`, radians in
    /// `[0, 2π)` — the observable the phase-computing applications read.
    ///
    /// # Errors
    ///
    /// * [`OscError::BadIndex`] for an out-of-range reference.
    /// * Propagates phase-estimation errors (requires locking-grade runs).
    pub fn phases_relative_to(&self, reference: usize) -> Result<Vec<f64>, OscError> {
        let run = &self.run;
        let dt = run.dt().0;
        let threshold = run.threshold().0;
        // The reference's crossings are the same for every vertex.
        let ref_crossings = signal::rising_crossings(run.waveform(reference)?, threshold);
        (0..run.n_oscillators())
            .map(|i| {
                if i == reference {
                    return Ok(0.0);
                }
                Ok(signal::phase_against_crossings(
                    &ref_crossings,
                    run.waveform(i)?,
                    dt,
                    threshold,
                )?)
            })
            .collect()
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
        let chain = OscillatorChain::ring(cfg, &[0.62, 0.621, 0.619, 0.62, 0.622]).unwrap();
        let start = staggered_start(&cfg, 5, chain.dim());
        assert_same_waveforms(
            &chain,
            start,
            cfg.sim,
            chain.simulate_default().unwrap().as_run(),
        );

        let mut edges: Vec<(usize, usize)> = (0..16).map(|v| (v, (v + 1) % 16)).collect();
        edges.extend([(0, 5), (3, 11), (12, 7)]);
        let graph = OscillatorGraph::new(cfg, &[0.62; 16], &edges).unwrap();
        let start = staggered_start(&cfg, 16, graph.dim());
        assert_same_waveforms(
            &graph,
            start,
            cfg.sim,
            graph.simulate_default().unwrap().as_run(),
        );
    }

    #[test]
    fn phases_equal_per_vertex_phase_difference() {
        let edges: Vec<(usize, usize)> = (0..6).map(|v| (v, (v + 1) % 6)).collect();
        let graph = OscillatorGraph::new(quick_config(), &[0.62; 6], &edges).unwrap();
        let chain_run = graph.simulate_default().unwrap();
        let run = chain_run.as_run();
        for reference in [0, 4] {
            let phases = chain_run.phases_relative_to(reference).unwrap();
            for (i, phase) in phases.iter().enumerate() {
                let expected = if i == reference {
                    0.0
                } else {
                    signal::phase_difference(
                        run.waveform(reference).unwrap(),
                        run.waveform(i).unwrap(),
                        run.dt().0,
                        run.threshold().0,
                    )
                    .unwrap()
                };
                assert_eq!(
                    phase.to_bits(),
                    expected.to_bits(),
                    "vertex {i} vs {reference}"
                );
            }
        }
        assert!(chain_run.phases_relative_to(6).is_err());
    }

    #[test]
    fn pair_array_orders_measures_by_detuning() {
        let array = PairArray::new(quick_config());
        let measures = array
            .compare_all(&[(Volts(0.62), Volts(0.62)), (Volts(0.62), Volts(0.626))])
            .unwrap();
        assert_eq!(measures.len(), 2);
        assert!(
            measures[1] > measures[0],
            "detuned pair should measure larger: {measures:?}"
        );
    }

    #[test]
    fn pair_array_propagates_bad_bias() {
        let array = PairArray::new(quick_config());
        assert!(array.compare_all(&[(Volts(0.62), Volts(9.0))]).is_err());
    }

    #[test]
    fn ring_of_identical_cells_synchronizes() {
        let chain = OscillatorChain::ring(quick_config(), &[0.62; 4]).unwrap();
        let run = chain.simulate_default().unwrap();
        assert!(
            run.is_synchronized(0.01).unwrap(),
            "spread {}",
            run.frequency_spread().unwrap()
        );
    }

    #[test]
    fn chain_with_close_inputs_synchronizes() {
        let chain = OscillatorChain::chain(quick_config(), &[0.620, 0.622, 0.621]).unwrap();
        let run = chain.simulate_default().unwrap();
        assert!(
            run.is_synchronized(0.015).unwrap(),
            "spread {}",
            run.frequency_spread().unwrap()
        );
    }

    #[test]
    fn chain_with_distant_inputs_does_not_synchronize() {
        let chain = OscillatorChain::chain(quick_config(), &[0.55, 0.75]).unwrap();
        let run = chain.simulate_default().unwrap();
        assert!(
            !run.is_synchronized(0.005).unwrap(),
            "spread {}",
            run.frequency_spread().unwrap()
        );
    }

    #[test]
    fn chain_requires_two_cells() {
        assert!(OscillatorChain::chain(quick_config(), &[0.62]).is_err());
    }

    #[test]
    fn topology_reported() {
        let ring = OscillatorChain::ring(quick_config(), &[0.62; 3]).unwrap();
        assert_eq!(ring.topology(), Topology::Ring);
        assert_eq!(ring.len(), 3);
        assert!(!ring.is_empty());
    }

    #[test]
    fn state_dimension_accounts_for_branches() {
        let cfg = quick_config();
        let chain = OscillatorChain::chain(cfg, &[0.62; 4]).unwrap();
        assert_eq!(chain.dim(), 4 * STATE_VARS + 3);
        let ring = OscillatorChain::ring(cfg, &[0.62; 4]).unwrap();
        assert_eq!(ring.dim(), 4 * STATE_VARS + 4);
    }
}

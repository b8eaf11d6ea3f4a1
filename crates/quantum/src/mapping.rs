//! Qubit mapping and SWAP routing.
//!
//! Physical quantum chips restrict two-qubit gates to coupled neighbour
//! pairs; the compiler layer of the Fig. 2 stack must place logical qubits
//! onto physical ones and insert SWAPs when a gate's operands are apart.
//! This module provides:
//!
//! * [`CouplingGraph`] — line, grid, and all-to-all topologies with BFS
//!   distances;
//! * [`route`] — SWAP insertion along shortest paths, with a
//!   [`RoutingStrategy`] choice between a greedy pass and a lookahead that
//!   scores candidate directions against upcoming gates (ablation A3).
//!
//! # Example
//!
//! ```
//! use quantum::circuit::Circuit;
//! use quantum::mapping::{route, CouplingGraph, RoutingStrategy};
//!
//! let mut c = Circuit::new(4)?;
//! c.cx(0, 3)?; // distant on a line
//! let line = CouplingGraph::line(4);
//! let routed = route(&c, &line, RoutingStrategy::Greedy)?;
//! assert!(routed.swap_count > 0);
//! # Ok::<(), quantum::QuantumError>(())
//! ```

use crate::circuit::Circuit;
use crate::gate::Gate;
use crate::QuantumError;
use std::collections::VecDeque;

/// An undirected coupling topology over physical qubits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CouplingGraph {
    n: usize,
    adjacency: Vec<Vec<usize>>,
}

impl CouplingGraph {
    /// Builds a graph from an edge list.
    ///
    /// # Errors
    ///
    /// * [`QuantumError::BadRegisterWidth`] for `n == 0`.
    /// * [`QuantumError::QubitOutOfRange`] for edges beyond `n`.
    /// * [`QuantumError::DuplicateQubits`] for self-loops.
    pub(crate) fn from_edges(n: usize, edges: &[(usize, usize)]) -> Result<Self, QuantumError> {
        if n == 0 {
            return Err(QuantumError::BadRegisterWidth { n_qubits: 0 });
        }
        let mut adjacency = vec![Vec::new(); n];
        for &(a, b) in edges {
            if a >= n || b >= n {
                return Err(QuantumError::QubitOutOfRange {
                    qubit: a.max(b),
                    n_qubits: n,
                });
            }
            if a == b {
                return Err(QuantumError::DuplicateQubits);
            }
            if !adjacency[a].contains(&b) {
                adjacency[a].push(b);
                adjacency[b].push(a);
            }
        }
        Ok(CouplingGraph { n, adjacency })
    }

    /// A 1-D chain `0 — 1 — … — n−1`.
    ///
    /// # Panics
    ///
    /// Panics when `n == 0`.
    #[must_use]
    pub fn line(n: usize) -> Self {
        let edges: Vec<(usize, usize)> = (1..n).map(|i| (i - 1, i)).collect();
        Self::from_edges(n, &edges).expect("line edges are valid")
    }

    /// A `rows × cols` 2-D grid (row-major physical indices).
    ///
    /// # Panics
    ///
    /// Panics when either dimension is zero.
    #[must_use]
    pub fn grid(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "grid dimensions must be nonzero");
        let mut edges = Vec::new();
        for r in 0..rows {
            for c in 0..cols {
                let idx = r * cols + c;
                if c + 1 < cols {
                    edges.push((idx, idx + 1));
                }
                if r + 1 < rows {
                    edges.push((idx, idx + cols));
                }
            }
        }
        Self::from_edges(rows * cols, &edges).expect("grid edges are valid")
    }

    /// Number of physical qubits.
    #[must_use]
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` when the graph has no qubits (unreachable via constructors).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Whether `a` and `b` are directly coupled.
    #[must_use]
    pub(crate) fn coupled(&self, a: usize, b: usize) -> bool {
        a < self.n && self.adjacency[a].contains(&b)
    }

    /// Neighbours of a physical qubit.
    #[must_use]
    pub(crate) fn neighbours(&self, q: usize) -> &[usize] {
        &self.adjacency[q]
    }

    /// BFS distances from `start` to every qubit (`usize::MAX` when
    /// unreachable).
    #[must_use]
    pub(crate) fn distances_from(&self, start: usize) -> Vec<usize> {
        let mut dist = vec![usize::MAX; self.n];
        if start >= self.n {
            return dist;
        }
        dist[start] = 0;
        let mut queue = VecDeque::from([start]);
        while let Some(u) = queue.pop_front() {
            for &v in &self.adjacency[u] {
                if dist[v] == usize::MAX {
                    dist[v] = dist[u] + 1;
                    queue.push_back(v);
                }
            }
        }
        dist
    }

    /// Shortest-path distance between two qubits.
    #[must_use]
    pub(crate) fn distance(&self, a: usize, b: usize) -> usize {
        self.distances_from(a).get(b).copied().unwrap_or(usize::MAX)
    }
}

/// Routing strategy (ablation A3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RoutingStrategy {
    /// Move one operand toward the other along a shortest path.
    Greedy,
    /// Like greedy, but among distance-reducing SWAP candidates pick the one
    /// minimizing the summed distances of the next few two-qubit gates.
    Lookahead {
        /// How many upcoming two-qubit gates to score.
        window: usize,
    },
}

/// The result of routing a circuit onto a topology.
#[derive(Debug, Clone, PartialEq)]
pub struct RoutedCircuit {
    /// The physical circuit (every 2-qubit gate on a coupled pair).
    pub circuit: Circuit,
    /// Number of SWAP gates inserted.
    pub swap_count: usize,
    /// The final logical→physical map.
    pub final_layout: Vec<usize>,
}

/// Routes `circuit` onto `graph` starting from the identity layout.
///
/// Three-qubit gates (Toffoli) are rejected: the router moves one- and
/// two-qubit gates only.
///
/// # Errors
///
/// * [`QuantumError::BadRegisterWidth`] when the graph is smaller than the
///   circuit.
/// * [`QuantumError::Algorithm`] for 3-qubit gates or disconnected targets.
pub fn route(
    circuit: &Circuit,
    graph: &CouplingGraph,
    strategy: RoutingStrategy,
) -> Result<RoutedCircuit, QuantumError> {
    let n = circuit.n_qubits();
    if graph.len() < n {
        return Err(QuantumError::BadRegisterWidth {
            n_qubits: graph.len(),
        });
    }
    // layout[logical] = physical; inverse[physical] = logical.
    let mut layout: Vec<usize> = (0..graph.len()).collect();
    let mut inverse: Vec<usize> = (0..graph.len()).collect();
    let mut out = Circuit::new(graph.len())?;
    let mut swap_count = 0usize;

    let gates = circuit.gates();
    for (gi, gate) in gates.iter().enumerate() {
        match gate.arity() {
            1 => {
                out.push(gate.map_qubits(|q| layout[q]))?;
            }
            2 => {
                let qs = gate.qubits();
                let (la, lb) = (qs[0], qs[1]);
                // Bring the operands adjacent.
                loop {
                    let (pa, pb) = (layout[la], layout[lb]);
                    if graph.coupled(pa, pb) {
                        break;
                    }
                    let dist_b = graph.distances_from(pb);
                    if dist_b[pa] == usize::MAX {
                        return Err(QuantumError::Algorithm {
                            reason: format!("qubits {pa} and {pb} are disconnected"),
                        });
                    }
                    // Candidate swaps: neighbours of pa that reduce the
                    // distance to pb.
                    let candidates: Vec<usize> = graph
                        .neighbours(pa)
                        .iter()
                        .copied()
                        .filter(|&nb| dist_b[nb] < dist_b[pa])
                        .collect();
                    let chosen = match strategy {
                        RoutingStrategy::Greedy => candidates[0],
                        RoutingStrategy::Lookahead { window } => {
                            let mut best = candidates[0];
                            let mut best_score = usize::MAX;
                            for &cand in &candidates {
                                // Hypothetical layout after swapping pa↔cand.
                                let score = lookahead_score(
                                    graph, &layout, &inverse, pa, cand, gates, gi, window,
                                );
                                if score < best_score {
                                    best_score = score;
                                    best = cand;
                                }
                            }
                            best
                        }
                    };
                    out.push(Gate::Swap(pa, chosen))?;
                    swap_count += 1;
                    // Update layout: physical pa now holds the logical qubit
                    // that was at `chosen`, and vice versa.
                    let l_other = inverse[chosen];
                    layout[la] = chosen;
                    layout[l_other] = pa;
                    inverse[pa] = l_other;
                    inverse[chosen] = la;
                }
                out.push(gate.map_qubits(|q| layout[q]))?;
            }
            _ => {
                return Err(QuantumError::Algorithm {
                    reason: "only 1- and 2-qubit gates can be routed".into(),
                });
            }
        }
    }
    Ok(RoutedCircuit {
        circuit: out,
        swap_count,
        final_layout: layout,
    })
}

#[allow(clippy::too_many_arguments)]
fn lookahead_score(
    graph: &CouplingGraph,
    layout: &[usize],
    inverse: &[usize],
    pa: usize,
    cand: usize,
    gates: &[Gate],
    current: usize,
    window: usize,
) -> usize {
    // Simulate the swap on a scratch layout.
    let mut lay = layout.to_vec();
    let la = inverse[pa];
    let l_other = inverse[cand];
    lay[la] = cand;
    lay[l_other] = pa;
    // Sum distances of the next `window` two-qubit gates (including the
    // current one).
    let mut score = 0usize;
    let mut seen = 0usize;
    for gate in gates.iter().skip(current) {
        if gate.arity() != 2 {
            continue;
        }
        let qs = gate.qubits();
        score += graph.distance(lay[qs[0]], lay[qs[1]]);
        seen += 1;
        if seen >= window.max(1) {
            break;
        }
    }
    score
}

/// Verifies that every 2-qubit gate of a circuit touches a coupled pair.
///
/// # Errors
///
/// Returns [`QuantumError::Uncoupled`] naming the first offending pair.
pub fn check_routed(circuit: &Circuit, graph: &CouplingGraph) -> Result<(), QuantumError> {
    for gate in circuit.gates() {
        if gate.arity() == 2 {
            let qs = gate.qubits();
            if !graph.coupled(qs[0], qs[1]) {
                return Err(QuantumError::Uncoupled { a: qs[0], b: qs[1] });
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::StateVector;

    #[test]
    fn line_distances() {
        let g = CouplingGraph::line(5);
        assert_eq!(g.distance(0, 4), 4);
        assert_eq!(g.distance(2, 2), 0);
        assert!(g.coupled(1, 2));
        assert!(!g.coupled(0, 2));
    }

    #[test]
    fn grid_distances() {
        let g = CouplingGraph::grid(3, 3);
        assert_eq!(g.len(), 9);
        // Manhattan distance on the grid.
        assert_eq!(g.distance(0, 8), 4);
        assert!(g.coupled(4, 1));
        assert!(!g.coupled(0, 4));
    }

    #[test]
    fn line_routing_inserts_swaps() {
        let mut c = Circuit::new(4).unwrap();
        c.cx(0, 3).unwrap();
        let g = CouplingGraph::line(4);
        let routed = route(&c, &g, RoutingStrategy::Greedy).unwrap();
        assert!(routed.swap_count >= 2, "swaps {}", routed.swap_count);
        check_routed(&routed.circuit, &g).unwrap();
    }

    #[test]
    fn routed_circuit_preserves_semantics() {
        // GHZ on a line topology: routed circuit must produce a state whose
        // measurement statistics match, up to the final layout permutation.
        let mut c = Circuit::new(3).unwrap();
        c.h(0).unwrap().cx(0, 2).unwrap().cx(0, 1).unwrap();
        let g = CouplingGraph::line(3);
        let routed = route(&c, &g, RoutingStrategy::Greedy).unwrap();
        check_routed(&routed.circuit, &g).unwrap();

        let direct = c.run(StateVector::zero(3)).unwrap();
        let phys = routed.circuit.run(StateVector::zero(3)).unwrap();
        // Compare probabilities after un-permuting physical → logical.
        for basis in 0..8usize {
            let mut phys_basis = 0usize;
            for (logical, &physical) in routed.final_layout.iter().take(3).enumerate() {
                if basis >> logical & 1 == 1 {
                    phys_basis |= 1 << physical;
                }
            }
            let pd = direct.probability(basis).unwrap();
            let pp = phys.probability(phys_basis).unwrap();
            assert!(
                (pd - pp).abs() < 1e-10,
                "basis {basis}: {pd} vs {pp} (layout {:?})",
                routed.final_layout
            );
        }
    }

    #[test]
    fn lookahead_not_worse_than_greedy_here() {
        // A circuit whose later gates reward routing direction choices.
        let mut c = Circuit::new(6).unwrap();
        c.cx(0, 5).unwrap().cx(0, 4).unwrap().cx(1, 5).unwrap();
        let g = CouplingGraph::line(6);
        let greedy = route(&c, &g, RoutingStrategy::Greedy).unwrap();
        let look = route(&c, &g, RoutingStrategy::Lookahead { window: 3 }).unwrap();
        check_routed(&look.circuit, &g).unwrap();
        assert!(look.swap_count <= greedy.swap_count + 1);
    }

    #[test]
    fn toffoli_rejected() {
        let mut c = Circuit::new(3).unwrap();
        c.push(Gate::Toffoli(0, 1, 2)).unwrap();
        let g = CouplingGraph::line(3);
        assert!(route(&c, &g, RoutingStrategy::Greedy).is_err());
    }

    #[test]
    fn graph_too_small_rejected() {
        let c = Circuit::new(5).unwrap();
        let g = CouplingGraph::line(3);
        assert!(route(&c, &g, RoutingStrategy::Greedy).is_err());
    }

    #[test]
    fn disconnected_graph_detected() {
        let g = CouplingGraph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        let mut c = Circuit::new(4).unwrap();
        c.cx(0, 2).unwrap();
        assert!(route(&c, &g, RoutingStrategy::Greedy).is_err());
    }

    #[test]
    fn from_edges_validation() {
        assert!(CouplingGraph::from_edges(0, &[]).is_err());
        assert!(CouplingGraph::from_edges(2, &[(0, 2)]).is_err());
        assert!(CouplingGraph::from_edges(2, &[(1, 1)]).is_err());
    }
}

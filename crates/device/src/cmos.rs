//! Per-operation CMOS energy and power model.
//!
//! The paper's §III-B quantifies its oscillator advantage against "the
//! corresponding CMOS implementation at the 32 nm process node" (3 mW vs
//! 0.936 mW). That comparison needs an energy model of a conventional
//! digital implementation; this module provides a first-order
//! activity × energy-per-op model with representative 32 nm constants and
//! simple Dennard-style scaling to other nodes.
//!
//! The absolute constants are of the textbook order of magnitude (Horowitz,
//! ISSCC 2014 "Computing's energy problem" gives ~0.03 pJ for an 8-bit add
//! at 45 nm); what the reproduction relies on is *relative* energy between
//! the digital datapath and the oscillator block, which is robust to the
//! exact constants chosen.
//!
//! # Example
//!
//! ```
//! use device::cmos::{CmosEnergyModel, Op, OpCounts, ProcessNode};
//!
//! let model = CmosEnergyModel::new(ProcessNode::Nm32);
//! let mut counts = OpCounts::new();
//! counts.add(Op::Add8, 16);       // 16 subtractions per FAST pixel test
//! counts.add(Op::Compare8, 32);
//! let energy = model.energy(&counts);
//! assert!(energy.0 > 0.0);
//! ```

use crate::units::{Joules, Seconds, Watts};
use std::collections::BTreeMap;

/// Technology node for energy scaling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ProcessNode {
    /// 65 nm planar.
    Nm65,
    /// 45 nm planar.
    Nm45,
    /// 32 nm planar — the node named in the paper's comparison.
    Nm32,
    /// 22 nm.
    Nm22,
}

impl ProcessNode {
    /// Feature size in nanometres.
    #[must_use]
    pub fn nanometres(self) -> f64 {
        match self {
            ProcessNode::Nm65 => 65.0,
            ProcessNode::Nm45 => 45.0,
            ProcessNode::Nm32 => 32.0,
            ProcessNode::Nm22 => 22.0,
        }
    }

    /// Energy scale factor relative to the 45 nm reference node.
    ///
    /// First-order: switching energy `C·V²` scales roughly with feature
    /// size squared in the Dennard regime.
    #[must_use]
    pub fn energy_scale(self) -> f64 {
        let l = self.nanometres() / 45.0;
        l * l
    }
}

impl std::fmt::Display for ProcessNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} nm", self.nanometres())
    }
}

/// Digital operation classes with distinct energy costs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Op {
    /// 8-bit integer add/subtract.
    Add8,
    /// 32-bit integer add/subtract.
    Add32,
    /// 8-bit magnitude comparison.
    Compare8,
    /// 8-bit absolute difference (subtract + conditional negate).
    AbsDiff8,
    /// 8-bit multiply.
    Mul8,
    /// 32-bit multiply.
    Mul32,
    /// Register-file read/write (32 bit).
    RegAccess,
    /// Small (8 KiB-class) SRAM access (32-bit word).
    SramAccess,
    /// Static 2-input logic gate evaluation (NAND-equivalent).
    LogicGate,
    /// Flip-flop clock event.
    FlipFlop,
}

impl Op {
    /// All operation classes, in a stable order.
    pub const ALL: [Op; 10] = [
        Op::Add8,
        Op::Add32,
        Op::Compare8,
        Op::AbsDiff8,
        Op::Mul8,
        Op::Mul32,
        Op::RegAccess,
        Op::SramAccess,
        Op::LogicGate,
        Op::FlipFlop,
    ];

    /// Reference energy per operation at 45 nm, in joules.
    #[must_use]
    pub fn reference_energy(self) -> f64 {
        match self {
            Op::Add8 => 0.03e-12,
            Op::Add32 => 0.1e-12,
            Op::Compare8 => 0.025e-12,
            Op::AbsDiff8 => 0.05e-12,
            Op::Mul8 => 0.2e-12,
            Op::Mul32 => 3.1e-12,
            Op::RegAccess => 0.1e-12,
            Op::SramAccess => 5.0e-12,
            Op::LogicGate => 0.003e-12,
            Op::FlipFlop => 0.01e-12,
        }
    }
}

/// A multiset of operations, the "activity trace" of a digital block.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OpCounts(BTreeMap<Op, u64>);

impl OpCounts {
    /// Creates an empty count set.
    #[must_use]
    pub fn new() -> Self {
        OpCounts(BTreeMap::new())
    }

    /// Adds `n` occurrences of `op`.
    pub fn add(&mut self, op: Op, n: u64) {
        *self.0.entry(op).or_insert(0) += n;
    }

    /// Count for one operation class.
    #[must_use]
    pub fn count(&self, op: Op) -> u64 {
        self.0.get(&op).copied().unwrap_or(0)
    }

    /// Total operations of all classes.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.0.values().sum()
    }

    /// Iterates `(op, count)` pairs in stable order.
    pub fn iter(&self) -> impl Iterator<Item = (Op, u64)> + '_ {
        self.0.iter().map(|(&op, &n)| (op, n))
    }
}

impl Extend<(Op, u64)> for OpCounts {
    fn extend<I: IntoIterator<Item = (Op, u64)>>(&mut self, iter: I) {
        for (op, n) in iter {
            self.add(op, n);
        }
    }
}

impl FromIterator<(Op, u64)> for OpCounts {
    fn from_iter<I: IntoIterator<Item = (Op, u64)>>(iter: I) -> Self {
        let mut counts = OpCounts::new();
        counts.extend(iter);
        counts
    }
}

/// Energy/power model for a given technology node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CmosEnergyModel {
    node: ProcessNode,
    /// Fraction of dynamic power added as static (leakage) overhead.
    pub leakage_fraction: f64,
}

impl CmosEnergyModel {
    /// Creates the model at `node` with a default 20 % leakage overhead
    /// (typical for 32 nm-class logic).
    #[must_use]
    pub fn new(node: ProcessNode) -> Self {
        CmosEnergyModel {
            node,
            leakage_fraction: 0.2,
        }
    }

    /// Energy of a single operation at this node.
    #[must_use]
    pub fn energy_of(&self, op: Op) -> Joules {
        Joules(op.reference_energy() * self.node.energy_scale())
    }

    /// Total dynamic energy of an activity trace.
    #[must_use]
    pub fn energy(&self, counts: &OpCounts) -> Joules {
        let dynamic: f64 = counts
            .iter()
            .map(|(op, n)| self.energy_of(op).0 * n as f64)
            .sum();
        Joules(dynamic)
    }

    /// Average power when the activity trace `counts` repeats every
    /// `period` (e.g. one video frame), including the leakage overhead.
    ///
    /// # Panics
    ///
    /// Debug-panics when `period` is non-positive.
    #[must_use]
    pub fn average_power(&self, counts: &OpCounts, period: Seconds) -> Watts {
        debug_assert!(period.0 > 0.0);
        let dynamic = self.energy(counts).0 / period.0;
        Watts(dynamic * (1.0 + self.leakage_fraction))
    }
}

/// A clocked, pipelined hardware accelerator built from a [`CmosEnergyModel`].
///
/// A synchronous datapath pays for more than its switched operations: the
/// clock tree and every pipeline register toggle on *every* cycle. This
/// wrapper models a dedicated engine that retires one counted operation per
/// cycle — so the equivalent clock frequency follows from the activity trace
/// and the deadline — and charges the per-cycle sequential overhead on top
/// of the operation energy. This is the "corresponding CMOS implementation"
/// side of the paper's §III-B power comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelinedDatapath {
    /// Combinational/arithmetic energy model.
    pub model: CmosEnergyModel,
    /// Pipeline + control flip-flops clocked every cycle.
    pub pipeline_flipflops: u64,
    /// Clock-tree buffer load, in NAND-equivalent gates toggling per cycle.
    pub clock_tree_gates: u64,
}

impl PipelinedDatapath {
    /// A representative small vision engine (FAST-class) at the given node:
    /// ~2000 pipeline/control flip-flops and ~1000 gate-equivalents of clock
    /// tree.
    #[must_use]
    pub fn vision_engine(node: ProcessNode) -> Self {
        PipelinedDatapath {
            model: CmosEnergyModel::new(node),
            pipeline_flipflops: 2000,
            clock_tree_gates: 1000,
        }
    }

    /// The clock frequency needed to retire `counts.total()` operations
    /// (one per cycle) within `period`.
    #[must_use]
    pub fn required_clock(&self, counts: &OpCounts, period: Seconds) -> f64 {
        debug_assert!(period.0 > 0.0);
        counts.total() as f64 / period.0
    }

    /// Average power of the engine completing the activity trace every
    /// `period`: operation energy plus per-cycle sequential overhead, plus
    /// the energy model's leakage fraction.
    ///
    /// # Panics
    ///
    /// Debug-panics when `period` is non-positive.
    #[must_use]
    pub fn average_power(&self, counts: &OpCounts, period: Seconds) -> Watts {
        let f_clk = self.required_clock(counts, period);
        let per_cycle = self.pipeline_flipflops as f64 * self.model.energy_of(Op::FlipFlop).0
            + self.clock_tree_gates as f64 * self.model.energy_of(Op::LogicGate).0;
        let overhead = f_clk * per_cycle;
        let ops = self.model.energy(counts).0 / period.0;
        Watts((ops + overhead) * (1.0 + self.model.leakage_fraction))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_scaling_monotone() {
        assert!(ProcessNode::Nm22.energy_scale() < ProcessNode::Nm32.energy_scale());
        assert!(ProcessNode::Nm32.energy_scale() < ProcessNode::Nm45.energy_scale());
        assert!(ProcessNode::Nm45.energy_scale() < ProcessNode::Nm65.energy_scale());
        assert!((ProcessNode::Nm45.energy_scale() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn op_counts_accumulate() {
        let mut c = OpCounts::new();
        c.add(Op::Add8, 3);
        c.add(Op::Add8, 2);
        c.add(Op::Mul8, 1);
        assert_eq!(c.count(Op::Add8), 5);
        assert_eq!(c.count(Op::Mul8), 1);
        assert_eq!(c.count(Op::SramAccess), 0);
        assert_eq!(c.total(), 6);
    }

    #[test]
    fn op_counts_from_iterator() {
        let c: OpCounts = [(Op::Mul8, 4), (Op::Add8, 2)].into_iter().collect();
        assert_eq!(c.total(), 6);
    }

    #[test]
    fn energy_linear_in_counts() {
        let model = CmosEnergyModel::new(ProcessNode::Nm32);
        let mut one = OpCounts::new();
        one.add(Op::Add32, 1);
        let mut many = OpCounts::new();
        many.add(Op::Add32, 1000);
        let e1 = model.energy(&one);
        let e1000 = model.energy(&many);
        assert!((e1000.0 / e1.0 - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn mul_costs_more_than_add() {
        let model = CmosEnergyModel::new(ProcessNode::Nm32);
        assert!(model.energy_of(Op::Mul8).0 > model.energy_of(Op::Add8).0);
        assert!(model.energy_of(Op::Mul32).0 > model.energy_of(Op::Add32).0);
    }

    #[test]
    fn sram_dominates_logic() {
        let model = CmosEnergyModel::new(ProcessNode::Nm32);
        assert!(model.energy_of(Op::SramAccess).0 > 10.0 * model.energy_of(Op::Add8).0);
    }

    #[test]
    fn average_power_includes_leakage() {
        let model = CmosEnergyModel::new(ProcessNode::Nm32);
        let mut counts = OpCounts::new();
        counts.add(Op::Add32, 1_000_000);
        let p = model.average_power(&counts, Seconds(1e-3));
        let dynamic_only = model.energy(&counts).0 / 1e-3;
        assert!((p.0 / dynamic_only - 1.2).abs() < 1e-12);
    }

    #[test]
    fn energy_at_smaller_node_is_lower() {
        let big = CmosEnergyModel::new(ProcessNode::Nm45);
        let small = CmosEnergyModel::new(ProcessNode::Nm22);
        assert!(small.energy_of(Op::Add8).0 < big.energy_of(Op::Add8).0);
    }

    #[test]
    fn node_display() {
        assert_eq!(ProcessNode::Nm32.to_string(), "32 nm");
    }

    #[test]
    fn pipelined_datapath_exceeds_bare_ops_power() {
        let engine = PipelinedDatapath::vision_engine(ProcessNode::Nm32);
        let mut counts = OpCounts::new();
        counts.add(Op::Compare8, 100_000);
        let period = Seconds(1e-3);
        let bare = engine.model.average_power(&counts, period);
        let full = engine.average_power(&counts, period);
        assert!(
            full.0 > bare.0,
            "overhead missing: {} vs {}",
            full.0,
            bare.0
        );
    }

    #[test]
    fn pipelined_datapath_clock_follows_throughput() {
        let engine = PipelinedDatapath::vision_engine(ProcessNode::Nm32);
        let mut counts = OpCounts::new();
        counts.add(Op::Add8, 1_000_000);
        assert_eq!(engine.required_clock(&counts, Seconds(1.0)), 1e6);
        assert_eq!(engine.required_clock(&counts, Seconds(0.5)), 2e6);
    }

    #[test]
    fn pipelined_datapath_power_scales_with_clock() {
        let engine = PipelinedDatapath::vision_engine(ProcessNode::Nm32);
        let mut counts = OpCounts::new();
        counts.add(Op::Add8, 1_000_000);
        let slow = engine.average_power(&counts, Seconds(1.0));
        let fast = engine.average_power(&counts, Seconds(0.1));
        assert!((fast.0 / slow.0 - 10.0).abs() < 1e-9);
    }
}

//! Trajectory diagnostics for DMM dynamics.
//!
//! Backs three of the paper's §IV claims with measurements:
//!
//! * **point dissipativity / boundedness** (Hale, ref. \[51\]) — trajectories
//!   remain in a bounded set: [`BoundednessReport`].
//! * **absence of periodic orbits** when a solution exists (refs. \[52, 53\])
//!   — [`recurrence_check`] scans checkpoint sequences for a revisited
//!   assignment that is *not* part of progress toward a solution.
//! * **dynamical long-range order** (refs. \[56, 58\]) — distant parts of the
//!   machine correlate during the transient: [`flip_size_distribution`]
//!   measures how many variables flip together between checkpoints
//!   (instanton jumps flip whole clusters; single-spin dynamics like
//!   simulated annealing flip one at a time).
//!
//! # Example
//!
//! ```
//! use mem::generators::planted_3sat;
//! use mem::dmm::{DmmParams, DmmSolver};
//! use mem::analysis::flip_size_distribution;
//!
//! let inst = planted_3sat(20, 4.0, 1)?;
//! let outcome = DmmSolver::new(DmmParams::default()).solve(&inst.formula, 3)?;
//! let flips = flip_size_distribution(&outcome.checkpoints);
//! assert!(!flips.is_empty() || outcome.checkpoints.len() < 2);
//! # Ok::<(), mem::MemError>(())
//! ```

use crate::assignment::Assignment;
use crate::dmm::DmmOutcome;
use std::collections::BTreeMap;

/// Boundedness diagnostics of a DMM run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundednessReport {
    /// Largest |v| seen (must stay ≤ 1 for a valid point-dissipative
    /// trajectory).
    pub max_abs_v: f64,
    /// Whether the trajectory respected the voltage bounds.
    pub bounded: bool,
}

/// Extracts boundedness diagnostics from an outcome.
#[must_use]
pub fn boundedness(outcome: &DmmOutcome) -> BoundednessReport {
    BoundednessReport {
        max_abs_v: outcome.max_abs_v,
        bounded: outcome.max_abs_v <= 1.0 + 1e-9,
    }
}

/// Result of a recurrence scan over checkpoint assignments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecurrenceReport {
    /// Number of checkpoints scanned.
    pub checkpoints: usize,
    /// Distinct assignments visited.
    pub distinct: usize,
    /// The longest *cycle* detected: a return to a previously seen
    /// assignment with at least one different assignment in between
    /// (consecutive repeats — the trajectory dwelling near a configuration —
    /// do not count).
    pub longest_cycle: usize,
}

impl RecurrenceReport {
    /// Whether a genuine revisit (possible periodic orbit) was observed.
    #[must_use]
    pub fn has_cycle(&self) -> bool {
        self.longest_cycle > 0
    }
}

/// Scans a checkpoint sequence for revisited assignments.
///
/// A solvable DMM should show `has_cycle() == false` in the digital
/// projection once dwelling is discounted — the refs. \[52, 53\] property.
#[must_use]
pub fn recurrence_check(checkpoints: &[Assignment]) -> RecurrenceReport {
    let mut last_seen: BTreeMap<&Assignment, usize> = BTreeMap::new();
    let mut distinct = 0usize;
    let mut longest_cycle = 0usize;
    let mut prev: Option<&Assignment> = None;
    for (i, a) in checkpoints.iter().enumerate() {
        if prev == Some(a) {
            // Dwelling at the same configuration: refresh position only.
            last_seen.insert(a, i);
            continue;
        }
        if let Some(&j) = last_seen.get(a) {
            longest_cycle = longest_cycle.max(i - j);
        } else {
            distinct += 1;
        }
        last_seen.insert(a, i);
        prev = Some(a);
    }
    RecurrenceReport {
        checkpoints: checkpoints.len(),
        distinct,
        longest_cycle,
    }
}

/// Sizes of the variable clusters flipped between consecutive checkpoints
/// (zero-size steps — no digital change — are omitted).
#[must_use]
pub fn flip_size_distribution(checkpoints: &[Assignment]) -> Vec<usize> {
    checkpoints
        .windows(2)
        .map(|w| w[0].hamming(&w[1]))
        .filter(|&h| h > 0)
        .collect()
}

/// Summary of cluster-flip behaviour (the DLRO observable of ref. \[56\]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterFlipStats {
    /// Number of nonzero flip events.
    pub events: usize,
    /// Mean flipped-cluster size.
    pub mean_size: f64,
    /// Largest flipped cluster.
    pub max_size: usize,
    /// Fraction of events flipping more than one variable simultaneously —
    /// strictly zero for single-spin-flip dynamics like simulated
    /// annealing.
    pub collective_fraction: f64,
}

/// Computes cluster-flip statistics from checkpoints.
#[must_use]
pub fn cluster_flip_stats(checkpoints: &[Assignment]) -> ClusterFlipStats {
    let sizes = flip_size_distribution(checkpoints);
    if sizes.is_empty() {
        return ClusterFlipStats {
            events: 0,
            mean_size: 0.0,
            max_size: 0,
            collective_fraction: 0.0,
        };
    }
    let events = sizes.len();
    let sum: usize = sizes.iter().sum();
    let max_size = sizes.iter().copied().max().unwrap_or(0);
    let collective = sizes.iter().filter(|&&s| s > 1).count();
    ClusterFlipStats {
        events,
        mean_size: sum as f64 / events as f64,
        max_size,
        collective_fraction: collective as f64 / events as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dmm::{DmmParams, DmmSolver};
    use crate::generators::planted_3sat;

    fn asg(bits: &[bool]) -> Assignment {
        Assignment::from_bools(bits)
    }

    #[test]
    fn recurrence_detects_cycles() {
        let a = asg(&[false, false]);
        let b = asg(&[true, false]);
        let seq = vec![a.clone(), b.clone(), a.clone()];
        let rep = recurrence_check(&seq);
        assert!(rep.has_cycle());
        assert_eq!(rep.longest_cycle, 2);
        assert_eq!(rep.distinct, 2);
        // Dwelling refreshes the position: the cycle counts from the last
        // step at `a`, not the first.
        let rep = recurrence_check(&[a.clone(), a.clone(), b, a]);
        assert_eq!(rep.longest_cycle, 2);
        assert_eq!(rep.distinct, 2);
    }

    #[test]
    fn dwelling_is_not_a_cycle() {
        let a = asg(&[true]);
        let seq = vec![a.clone(), a.clone(), a.clone()];
        let rep = recurrence_check(&seq);
        assert!(!rep.has_cycle());
        assert_eq!(rep.distinct, 1);
    }

    #[test]
    fn monotone_progress_has_no_cycle() {
        let seq = vec![
            asg(&[false, false]),
            asg(&[true, false]),
            asg(&[true, true]),
        ];
        assert!(!recurrence_check(&seq).has_cycle());
    }

    #[test]
    fn flip_sizes_measured() {
        let seq = vec![
            asg(&[false, false, false]),
            asg(&[true, true, false]), // 2-cluster flip
            asg(&[true, true, false]), // dwell
            asg(&[true, true, true]),  // 1 flip
        ];
        assert_eq!(flip_size_distribution(&seq), vec![2, 1]);
        let stats = cluster_flip_stats(&seq);
        assert_eq!(stats.events, 2);
        assert_eq!(stats.max_size, 2);
        assert!((stats.mean_size - 1.5).abs() < 1e-12);
        assert!((stats.collective_fraction - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_sequences_safe() {
        assert_eq!(flip_size_distribution(&[]).len(), 0);
        let stats = cluster_flip_stats(&[]);
        assert_eq!(stats.events, 0);
        let rep = recurrence_check(&[]);
        assert_eq!(rep.distinct, 0);
    }

    #[test]
    fn solved_dmm_run_is_bounded_and_collective() {
        let inst = planted_3sat(25, 4.2, 9).unwrap();
        let outcome = DmmSolver::new(DmmParams::default())
            .solve(&inst.formula, 5)
            .unwrap();
        assert!(outcome.solution.is_some());
        let bounds = boundedness(&outcome);
        assert!(bounds.bounded, "max |v| = {}", bounds.max_abs_v);
        let stats = cluster_flip_stats(&outcome.checkpoints);
        // DMM transients flip whole clusters between checkpoints — the DLRO
        // signature (simulated annealing would show collective_fraction 0
        // at matched checkpoint granularity of one flip per step).
        assert!(
            stats.collective_fraction > 0.0 || stats.events <= 1,
            "{stats:?}"
        );
    }
}

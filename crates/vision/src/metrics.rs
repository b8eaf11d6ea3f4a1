//! Corner-set agreement metrics.
//!
//! The corner-detection experiments compare detector outputs against either
//! synthetic ground truth or the digital baseline. Matching is greedy
//! one-to-one within a Chebyshev pixel tolerance.
//!
//! # Example
//!
//! ```
//! use vision::Corner;
//! use vision::metrics::match_corners;
//!
//! let truth = vec![Corner { x: 10, y: 10, score: 1.0 }];
//! let found = vec![Corner { x: 11, y: 10, score: 1.0 }];
//! let m = match_corners(&truth, &found, 2);
//! assert_eq!(m.true_positives, 1);
//! assert_eq!(m.f1(), 1.0);
//! ```

use crate::Corner;

/// Outcome of matching a detected corner set against a reference set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MatchResult {
    /// Detections matched to a reference corner.
    pub true_positives: usize,
    /// Detections with no reference match.
    pub false_positives: usize,
    /// Reference corners with no detection.
    pub false_negatives: usize,
}

impl MatchResult {
    /// Precision `TP / (TP + FP)`; 1 when nothing was detected and nothing
    /// was expected.
    #[must_use]
    pub(crate) fn precision(&self) -> f64 {
        let denom = self.true_positives + self.false_positives;
        if denom == 0 {
            return if self.false_negatives == 0 { 1.0 } else { 0.0 };
        }
        self.true_positives as f64 / denom as f64
    }

    /// Recall `TP / (TP + FN)`; 1 when the reference set is empty and
    /// nothing was detected.
    #[must_use]
    pub fn recall(&self) -> f64 {
        let denom = self.true_positives + self.false_negatives;
        if denom == 0 {
            return if self.false_positives == 0 { 1.0 } else { 0.0 };
        }
        self.true_positives as f64 / denom as f64
    }

    /// F1 score (harmonic mean of precision and recall).
    #[must_use]
    pub fn f1(&self) -> f64 {
        let p = self.precision();
        let r = self.recall();
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }
}

impl std::fmt::Display for MatchResult {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "tp={} fp={} fn={} precision={:.3} recall={:.3} f1={:.3}",
            self.true_positives,
            self.false_positives,
            self.false_negatives,
            self.precision(),
            self.recall(),
            self.f1()
        )
    }
}

/// Greedy one-to-one matching of `detected` against `reference` within a
/// Chebyshev `tolerance` (pixels). Each reference corner can absorb at most
/// one detection; detections are matched in order of increasing distance.
#[must_use]
pub fn match_corners(reference: &[Corner], detected: &[Corner], tolerance: usize) -> MatchResult {
    // Build all candidate (distance, ref_idx, det_idx) pairs within
    // tolerance, then greedily take the closest pairs first.
    let mut candidates: Vec<(usize, usize, usize)> = Vec::new();
    for (ri, r) in reference.iter().enumerate() {
        for (di, d) in detected.iter().enumerate() {
            let dist = r.chebyshev(d);
            if dist <= tolerance {
                candidates.push((dist, ri, di));
            }
        }
    }
    candidates.sort_unstable();
    let mut ref_used = vec![false; reference.len()];
    let mut det_used = vec![false; detected.len()];
    let mut tp = 0usize;
    for (_, ri, di) in candidates {
        if !ref_used[ri] && !det_used[di] {
            ref_used[ri] = true;
            det_used[di] = true;
            tp += 1;
        }
    }
    MatchResult {
        true_positives: tp,
        false_positives: detected.len() - tp,
        false_negatives: reference.len() - tp,
    }
}

/// Convenience: matches detections against bare `(x, y)` ground-truth
/// positions (as produced by [`crate::synth::SceneBuilder::ground_truth_corners`]).
#[must_use]
pub fn match_against_ground_truth(
    ground_truth: &[(usize, usize)],
    detected: &[Corner],
    tolerance: usize,
) -> MatchResult {
    let reference: Vec<Corner> = ground_truth
        .iter()
        .map(|&(x, y)| Corner { x, y, score: 0.0 })
        .collect();
    match_corners(&reference, detected, tolerance)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(x: usize, y: usize) -> Corner {
        Corner { x, y, score: 0.0 }
    }

    #[test]
    fn exact_match() {
        let m = match_corners(&[c(5, 5)], &[c(5, 5)], 0);
        assert_eq!(m.true_positives, 1);
        assert_eq!(m.precision(), 1.0);
        assert_eq!(m.recall(), 1.0);
    }

    #[test]
    fn tolerance_allows_offsets() {
        let m = match_corners(&[c(5, 5)], &[c(7, 5)], 2);
        assert_eq!(m.true_positives, 1);
        let strict = match_corners(&[c(5, 5)], &[c(7, 5)], 1);
        assert_eq!(strict.true_positives, 0);
        assert_eq!(strict.false_positives, 1);
        assert_eq!(strict.false_negatives, 1);
    }

    #[test]
    fn one_to_one_matching() {
        // Two detections near one reference: only one may match.
        let m = match_corners(&[c(5, 5)], &[c(5, 5), c(6, 5)], 2);
        assert_eq!(m.true_positives, 1);
        assert_eq!(m.false_positives, 1);
    }

    #[test]
    fn greedy_prefers_closest() {
        // ref A at (0,0), ref B at (4,0); detection at (1,0) must match A
        // even though it is also within tolerance of B.
        let m = match_corners(&[c(0, 0), c(4, 0)], &[c(1, 0), c(4, 0)], 3);
        assert_eq!(m.true_positives, 2);
    }

    #[test]
    fn empty_sets() {
        let m = match_corners(&[], &[], 1);
        assert_eq!(m.precision(), 1.0);
        assert_eq!(m.recall(), 1.0);
        let missed = match_corners(&[c(1, 1)], &[], 1);
        assert_eq!(missed.recall(), 0.0);
        assert_eq!(missed.precision(), 0.0);
        let spurious = match_corners(&[], &[c(1, 1)], 1);
        assert_eq!(spurious.precision(), 0.0);
        assert_eq!(spurious.recall(), 0.0);
    }

    #[test]
    fn f1_harmonic_mean() {
        let m = MatchResult {
            true_positives: 1,
            false_positives: 1,
            false_negatives: 0,
        };
        // precision 0.5, recall 1 → f1 = 2/3.
        assert!((m.f1() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn ground_truth_helper() {
        let m = match_against_ground_truth(&[(3, 3)], &[c(4, 3)], 1);
        assert_eq!(m.true_positives, 1);
    }

    #[test]
    fn display_contains_scores() {
        let m = MatchResult {
            true_positives: 2,
            false_positives: 1,
            false_negatives: 1,
        };
        let s = m.to_string();
        assert!(s.contains("tp=2"));
        assert!(s.contains("f1="));
    }
}

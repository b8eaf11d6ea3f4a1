//! Baseline software FAST segment-test corner detector.
//!
//! Features-from-Accelerated-Segment-Tests (Rosten & Drummond, ECCV 2006 —
//! the paper's ref. \[45\]): a pixel `p` is a corner when `N` *contiguous*
//! pixels on its radius-3 Bresenham ring are all brighter than `p + t` or
//! all darker than `p − t`. The classic `N = 9` variant is the default.
//!
//! The detector also produces an operation count ([`FastDetector::detect_counted`])
//! so the energy model can cost the digital implementation exactly as
//! executed — including the standard 4-pixel quick-reject pre-test that
//! makes FAST fast.
//!
//! # Example
//!
//! ```
//! use vision::fast::{FastDetector, FastParams};
//! use vision::synth::SceneBuilder;
//!
//! let img = SceneBuilder::new(32, 32).rectangle(8, 8, 12, 12, 220).build();
//! let corners = FastDetector::new(FastParams::default()).detect(&img);
//! assert!(corners.iter().any(|c| c.chebyshev(&vision::Corner { x: 8, y: 8, score: 0.0 }) <= 1));
//! ```

use crate::bresenham::{has_contiguous_run, ring_coords, RING_RADIUS, RING_SIZE};
use crate::image::GrayImage;
use crate::Corner;
use device::cmos::{Op, OpCounts};

/// FAST detector parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FastParams {
    /// Required number of contiguous brighter/darker ring pixels (the `N`
    /// of FAST-N; 9 and 12 are the common variants).
    pub n_contiguous: usize,
    /// Intensity threshold `t`.
    pub threshold: u8,
    /// Whether to apply 3×3 non-maximum suppression on the corner score.
    pub nonmax_suppression: bool,
}

impl Default for FastParams {
    fn default() -> Self {
        FastParams {
            n_contiguous: 9,
            threshold: 25,
            nonmax_suppression: true,
        }
    }
}

/// Classification of one ring pixel against the centre.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RingClass {
    Brighter,
    Darker,
    Similar,
}

/// The baseline software detector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FastDetector {
    params: FastParams,
}

impl FastDetector {
    /// Creates a detector.
    #[must_use]
    pub fn new(params: FastParams) -> Self {
        FastDetector { params }
    }

    /// The parameters.
    #[must_use]
    pub fn params(&self) -> &FastParams {
        &self.params
    }

    /// Detects corners.
    #[must_use]
    pub fn detect(&self, img: &GrayImage) -> Vec<Corner> {
        self.detect_counted(img).0
    }

    /// Detects corners and returns the digital operation trace actually
    /// executed (pixel reads as SRAM accesses, threshold compares, absolute
    /// differences for scoring).
    #[must_use]
    pub fn detect_counted(&self, img: &GrayImage) -> (Vec<Corner>, OpCounts) {
        let mut counts = OpCounts::new();
        let mut raw: Vec<Corner> = Vec::new();
        for y in 0..img.height() {
            for x in 0..img.width() {
                if !img.in_interior(x, y, RING_RADIUS) {
                    continue;
                }
                if let Some(score) = self.test_pixel(img, x, y, &mut counts) {
                    raw.push(Corner { x, y, score });
                }
            }
        }
        let corners = if self.params.nonmax_suppression {
            nonmax_suppress(&raw, &mut counts)
        } else {
            raw
        };
        (corners, counts)
    }

    /// Segment test at one pixel; returns the corner score when positive.
    fn test_pixel(
        &self,
        img: &GrayImage,
        x: usize,
        y: usize,
        counts: &mut OpCounts,
    ) -> Option<f64> {
        let p = img.at(x, y) as i32;
        counts.add(Op::SramAccess, 1);
        let t = self.params.threshold as i32;
        let ring = ring_coords(x, y);

        // Quick reject (the "high-speed test") on the 4 compass pixels
        // (indices 0, 4, 8, 12): any run of N ≥ 12 contiguous ring pixels
        // covers at least 3 compass points; N ≥ 9 covers at least 2.
        if self.params.n_contiguous >= 9 {
            let required = if self.params.n_contiguous >= 12 { 3 } else { 2 };
            let mut brighter = 0;
            let mut darker = 0;
            for &i in &[0usize, 4, 8, 12] {
                let (rx, ry) = ring[i];
                let v = img.at(rx, ry) as i32;
                counts.add(Op::SramAccess, 1);
                counts.add(Op::Compare8, 2);
                if v >= p + t {
                    brighter += 1;
                } else if v <= p - t {
                    darker += 1;
                }
            }
            if brighter < required && darker < required {
                return None;
            }
        }

        let mut classes = [RingClass::Similar; RING_SIZE];
        let mut score_acc = 0i32;
        for (i, &(rx, ry)) in ring.iter().enumerate() {
            let v = img.at(rx, ry) as i32;
            counts.add(Op::SramAccess, 1);
            counts.add(Op::Compare8, 2);
            counts.add(Op::AbsDiff8, 1);
            classes[i] = if v >= p + t {
                RingClass::Brighter
            } else if v <= p - t {
                RingClass::Darker
            } else {
                RingClass::Similar
            };
            if classes[i] != RingClass::Similar {
                score_acc += (v - p).abs() - t;
                counts.add(Op::Add32, 1);
            }
        }

        let brighter: [bool; RING_SIZE] =
            std::array::from_fn(|i| classes[i] == RingClass::Brighter);
        let darker: [bool; RING_SIZE] = std::array::from_fn(|i| classes[i] == RingClass::Darker);
        // The contiguity scan is a small shift-register circuit; cost it as
        // 2·RING_SIZE logic-gate evaluations per direction.
        counts.add(Op::LogicGate, 4 * RING_SIZE as u64);
        if has_contiguous_run(&brighter, self.params.n_contiguous)
            || has_contiguous_run(&darker, self.params.n_contiguous)
        {
            Some(score_acc as f64)
        } else {
            None
        }
    }
}

/// 3×3 non-maximum suppression: keeps a corner only when its score is the
/// strict maximum of its 8-neighbourhood (ties broken toward the earlier
/// raster-order corner).
fn nonmax_suppress(corners: &[Corner], counts: &mut OpCounts) -> Vec<Corner> {
    use std::collections::HashMap;
    let by_pos: HashMap<(usize, usize), f64> =
        corners.iter().map(|c| ((c.x, c.y), c.score)).collect();
    corners
        .iter()
        .filter(|c| {
            let mut keep = true;
            for dy in -1i32..=1 {
                for dx in -1i32..=1 {
                    if dx == 0 && dy == 0 {
                        continue;
                    }
                    let nx = c.x as i32 + dx;
                    let ny = c.y as i32 + dy;
                    if nx < 0 || ny < 0 {
                        continue;
                    }
                    if let Some(&s) = by_pos.get(&(nx as usize, ny as usize)) {
                        counts.add(Op::Compare8, 1);
                        // Strict domination, with raster-order tiebreak.
                        let earlier = (ny as usize, nx as usize) < (c.y, c.x);
                        if s > c.score || (s == c.score && earlier) {
                            keep = false;
                        }
                    }
                }
            }
            keep
        })
        .copied()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::SceneBuilder;

    fn bright_square() -> GrayImage {
        SceneBuilder::new(32, 32)
            .background(20)
            .rectangle(10, 10, 10, 10, 220)
            .build()
    }

    #[test]
    fn detects_square_corners() {
        let img = bright_square();
        let corners = FastDetector::new(FastParams::default()).detect(&img);
        assert!(!corners.is_empty());
        // All four square vertices should have a detection within 2 px.
        for &(gx, gy) in &[(10, 10), (19, 10), (10, 19), (19, 19)] {
            let hit = corners.iter().any(|c| {
                c.chebyshev(&Corner {
                    x: gx,
                    y: gy,
                    score: 0.0,
                }) <= 2
            });
            assert!(hit, "vertex ({gx},{gy}) missed; corners {corners:?}");
        }
    }

    #[test]
    fn uniform_image_has_no_corners() {
        let img = GrayImage::new(32, 32, 128);
        let corners = FastDetector::new(FastParams::default()).detect(&img);
        assert!(corners.is_empty());
    }

    #[test]
    fn straight_edge_is_not_a_corner() {
        // A half-plane edge: at most 8 contiguous ring pixels differ, so
        // FAST-9 must not fire along the edge interior.
        let img = SceneBuilder::new(32, 32)
            .background(20)
            .rectangle(16, 0, 16, 32, 220)
            .build();
        let corners = FastDetector::new(FastParams::default()).detect(&img);
        for c in &corners {
            assert!(
                c.y <= 4 || c.y >= 27,
                "false corner at edge interior: {c:?}"
            );
        }
    }

    #[test]
    fn dark_corner_detected_too() {
        let img = SceneBuilder::new(32, 32)
            .background(220)
            .rectangle(10, 10, 10, 10, 20)
            .build();
        let corners = FastDetector::new(FastParams::default()).detect(&img);
        assert!(!corners.is_empty(), "dark-on-bright corners missed");
    }

    #[test]
    fn higher_threshold_detects_fewer() {
        let img = SceneBuilder::new(48, 48)
            .background(100)
            .rectangle(10, 10, 14, 14, 160)
            .rectangle(28, 28, 12, 12, 130)
            .build();
        let lo = FastDetector::new(FastParams {
            threshold: 10,
            ..FastParams::default()
        })
        .detect(&img);
        let hi = FastDetector::new(FastParams {
            threshold: 50,
            ..FastParams::default()
        })
        .detect(&img);
        assert!(lo.len() >= hi.len());
    }

    #[test]
    fn nonmax_suppression_thins_detections() {
        let img = bright_square();
        let with = FastDetector::new(FastParams::default()).detect(&img);
        let without = FastDetector::new(FastParams {
            nonmax_suppression: false,
            ..FastParams::default()
        })
        .detect(&img);
        assert!(with.len() <= without.len());
        assert!(!with.is_empty());
    }

    #[test]
    fn op_counts_nonzero_and_dominated_by_reads() {
        let img = bright_square();
        let (_, counts) = FastDetector::new(FastParams::default()).detect_counted(&img);
        assert!(counts.count(Op::SramAccess) > 0);
        assert!(counts.count(Op::Compare8) > 0);
        assert!(counts.total() > 1000);
    }

    #[test]
    fn quick_reject_reduces_work_on_flat_images() {
        let flat = GrayImage::new(64, 64, 128);
        let mut busy = SceneBuilder::new(64, 64);
        for i in 0..6 {
            busy = busy.rectangle(4 + 9 * i, 4 + 9 * i, 6, 6, 255);
        }
        let busy = busy.build();
        let (_, flat_counts) = FastDetector::new(FastParams::default()).detect_counted(&flat);
        let (_, busy_counts) = FastDetector::new(FastParams::default()).detect_counted(&busy);
        assert!(
            flat_counts.total() < busy_counts.total(),
            "flat {} vs busy {}",
            flat_counts.total(),
            busy_counts.total()
        );
    }

    #[test]
    fn fast12_stricter_than_fast9() {
        let img = bright_square();
        let n9 = FastDetector::new(FastParams {
            n_contiguous: 9,
            nonmax_suppression: false,
            ..FastParams::default()
        })
        .detect(&img);
        let n12 = FastDetector::new(FastParams {
            n_contiguous: 12,
            nonmax_suppression: false,
            ..FastParams::default()
        })
        .detect(&img);
        assert!(n12.len() <= n9.len());
    }
}

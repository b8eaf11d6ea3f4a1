//! Baseline software FAST segment-test corner detector.
//!
//! Features-from-Accelerated-Segment-Tests (Rosten & Drummond, ECCV 2006 —
//! the paper's ref. \[45\]): a pixel `p` is a corner when `N` *contiguous*
//! pixels on its radius-3 Bresenham ring are all brighter than `p + t` or
//! all darker than `p − t`. This is FAST-9 at `t` = 25 with 3×3
//! non-maximum suppression, the detector Fig. 6 compares against.
//!
//! The detector also produces an operation count (`detect_counted`)
//! so the energy model can cost the digital implementation exactly as
//! executed — including the standard 4-pixel quick-reject pre-test that
//! makes FAST fast.
//!
//! # Example
//!
//! ```
//! use vision::synth::SceneBuilder;
//!
//! let img = SceneBuilder::new(32, 32).rectangle(8, 8, 12, 12, 220).build();
//! let corners = vision::fast::detect(&img);
//! assert!(corners.iter().any(|c| c.chebyshev(&vision::Corner { x: 8, y: 8, score: 0.0 }) <= 1));
//! ```

use crate::bresenham::{has_contiguous_run, ring_coords, RING_RADIUS, RING_SIZE};
use crate::image::GrayImage;
use crate::Corner;
use device::cmos::{Op, OpCounts};

/// The `N` of FAST-N: contiguous brighter or darker ring pixels a corner
/// needs.
pub(crate) const N_CONTIGUOUS: usize = 9;

/// The intensity threshold `t`.
pub(crate) const THRESHOLD: u8 = 25;

/// Classification of one ring pixel against the centre.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RingClass {
    Brighter,
    Darker,
    Similar,
}

/// Detects corners.
#[must_use]
pub fn detect(img: &GrayImage) -> Vec<Corner> {
    detect_counted(img).0
}

/// Detects corners and returns the digital operation trace actually
/// executed (pixel reads as SRAM accesses, threshold compares, absolute
/// differences for scoring).
#[must_use]
pub(crate) fn detect_counted(img: &GrayImage) -> (Vec<Corner>, OpCounts) {
    let mut counts = OpCounts::new();
    let mut raw: Vec<Corner> = Vec::new();
    for y in 0..img.height() {
        for x in 0..img.width() {
            if !img.in_interior(x, y, RING_RADIUS) {
                continue;
            }
            if let Some(score) = test_pixel(img, x, y, &mut counts) {
                raw.push(Corner { x, y, score });
            }
        }
    }
    let corners = nonmax_suppress(&raw, &mut counts);
    (corners, counts)
}

/// Segment test at one pixel; returns the corner score when positive.
fn test_pixel(img: &GrayImage, x: usize, y: usize, counts: &mut OpCounts) -> Option<f64> {
    let p = img.at(x, y) as i32;
    counts.add(Op::SramAccess, 1);
    let t = THRESHOLD as i32;
    let ring = ring_coords(x, y);

    // Quick reject (the "high-speed test") on the 4 compass pixels
    // (indices 0, 4, 8, 12): any run of 9 contiguous ring pixels covers at
    // least 2 of them.
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
    if brighter < 2 && darker < 2 {
        return None;
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

    let brighter: [bool; RING_SIZE] = std::array::from_fn(|i| classes[i] == RingClass::Brighter);
    let darker: [bool; RING_SIZE] = std::array::from_fn(|i| classes[i] == RingClass::Darker);
    // The contiguity scan is a small shift-register circuit; cost it as
    // 2·RING_SIZE logic-gate evaluations per direction.
    counts.add(Op::LogicGate, 4 * RING_SIZE as u64);
    if has_contiguous_run(&brighter, N_CONTIGUOUS) || has_contiguous_run(&darker, N_CONTIGUOUS) {
        Some(score_acc as f64)
    } else {
        None
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
        let corners = detect(&img);
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
        let corners = detect(&img);
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
        let corners = detect(&img);
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
        let corners = detect(&img);
        assert!(!corners.is_empty(), "dark-on-bright corners missed");
    }

    #[test]
    fn op_counts_nonzero_and_dominated_by_reads() {
        let img = bright_square();
        let (_, counts) = detect_counted(&img);
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
        let (_, flat_counts) = detect_counted(&flat);
        let (_, busy_counts) = detect_counted(&busy);
        assert!(
            flat_counts.total() < busy_counts.total(),
            "flat {} vs busy {}",
            flat_counts.total(),
            busy_counts.total()
        );
    }
}

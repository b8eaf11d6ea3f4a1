//! Oscillator-norm FAST: the Fig. 6 pipeline.
//!
//! The paper's two-step dataflow:
//!
//! 1. **Ring comparison** — the pixel under test is compared with its 16
//!    ring pixels; intensities are "fed as voltages to the coupled
//!    oscillator distance metric computation primitive", and the XOR
//!    measure is checked against a threshold to flag differing pixels. A
//!    corner candidate needs `N` contiguous flagged pixels. A 4-pixel
//!    quick reject on the compass pixels comes first, as in the digital
//!    detector's high-speed test.
//! 2. **False-positive rejection** — because the oscillator distance is
//!    unsigned ("the direction of the difference … is not known"), a run of
//!    flagged pixels could mix brighter and darker neighbours. The paper's
//!    fix: "we compare the adjacent pixels in the result set with each
//!    other … if any of the difference values are greater than two times
//!    the threshold, then we can classify the result set as a false
//!    positive."
//!
//! `N` and the intensity threshold are the digital detector's: FAST-9 at
//! `t` = 25 ([`crate::fast`]). The detector uses a calibrated
//! [`osc::norms::OscillatorDistance`] — the physical transfer curve
//! measured once from the coupled-pair simulator — and counts every
//! oscillator comparison so [`crate::energy`] can cost the block exactly.
//!
//! # Example
//!
//! ```no_run
//! use osc::norms::{NormRegime, OscillatorDistance};
//! use vision::osc_fast::OscFastDetector;
//! use vision::synth::SceneBuilder;
//!
//! let dist = OscillatorDistance::calibrate(NormRegime::Shallow.config(), 0.62, 0.02, 9)?;
//! let detector = OscFastDetector::new(dist);
//! let img = SceneBuilder::new(32, 32).rectangle(8, 8, 12, 12, 220).build();
//! let outcome = detector.detect(&img);
//! assert!(outcome.comparisons > 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::bresenham::{ring_coords, RING_RADIUS, RING_SIZE};
use crate::fast::{N_CONTIGUOUS, THRESHOLD};
use crate::image::GrayImage;
use crate::Corner;
use osc::norms::OscillatorDistance;

/// Result of an oscillator-FAST detection pass.
#[derive(Debug, Clone, PartialEq)]
pub struct OscFastOutcome {
    /// Detected corners.
    pub corners: Vec<Corner>,
    /// Total oscillator-pair comparisons performed (the energy unit of the
    /// analog block).
    pub comparisons: u64,
    /// Candidates removed by the step-2 false-positive rejection.
    pub rejected_false_positives: u64,
}

/// The oscillator-norm FAST detector.
#[derive(Debug, Clone, PartialEq)]
pub struct OscFastDetector {
    distance: OscillatorDistance,
    measure_threshold: f64,
    measure_threshold_2x: f64,
}

impl OscFastDetector {
    /// Creates a detector around a calibrated distance primitive.
    ///
    /// The intensity threshold `t` maps to a measure threshold by evaluating
    /// the calibrated curve at normalized separation `t/255` (and `2t/255`
    /// for the rejection test) — i.e. the thresholds are set in the same
    /// units the analog hardware actually outputs.
    #[must_use]
    pub fn new(distance: OscillatorDistance) -> Self {
        let t_norm = THRESHOLD as f64 / 255.0;
        let measure_threshold = distance.distance(0.0, t_norm);
        let measure_threshold_2x = distance.distance(0.0, (2.0 * t_norm).min(1.0));
        OscFastDetector {
            distance,
            measure_threshold,
            measure_threshold_2x,
        }
    }

    /// Runs the two-step pipeline over the image.
    #[must_use]
    pub fn detect(&self, img: &GrayImage) -> OscFastOutcome {
        let mut comparisons = 0u64;
        let mut rejected = 0u64;
        let mut raw = Vec::new();
        for y in 0..img.height() {
            for x in 0..img.width() {
                if !img.in_interior(x, y, RING_RADIUS) {
                    continue;
                }
                match self.test_pixel(img, x, y, &mut comparisons) {
                    PixelOutcome::Corner(score) => raw.push(Corner { x, y, score }),
                    PixelOutcome::FalsePositive => rejected += 1,
                    PixelOutcome::NotCorner => {}
                }
            }
        }
        // Same 3×3 non-max suppression as the digital baseline (done in the
        // digital periphery of the block).
        let corners = nonmax(&raw);
        OscFastOutcome {
            corners,
            comparisons,
            rejected_false_positives: rejected,
        }
    }

    fn norm(v: u8) -> f64 {
        v as f64 / 255.0
    }

    fn test_pixel(
        &self,
        img: &GrayImage,
        x: usize,
        y: usize,
        comparisons: &mut u64,
    ) -> PixelOutcome {
        let p = Self::norm(img.at(x, y));
        let ring = ring_coords(x, y);

        // Step 0: quick reject on the 4 compass pixels. A run of 9
        // contiguous ring pixels covers at least 2 of them.
        let mut differs = 0;
        for &i in &[0usize, 4, 8, 12] {
            let (rx, ry) = ring[i];
            *comparisons += 1;
            if self.distance.distance(p, Self::norm(img.at(rx, ry))) > self.measure_threshold {
                differs += 1;
            }
        }
        if differs < 2 {
            return PixelOutcome::NotCorner;
        }

        // Step 1: 16 unsigned oscillator comparisons against the centre.
        let mut flags = [false; RING_SIZE];
        let mut score = 0.0;
        for (i, &(rx, ry)) in ring.iter().enumerate() {
            *comparisons += 1;
            let d = self.distance.distance(p, Self::norm(img.at(rx, ry)));
            if d > self.measure_threshold {
                flags[i] = true;
                score += d - self.measure_threshold;
            }
        }
        let Some(run) = longest_run(&flags) else {
            return PixelOutcome::NotCorner;
        };
        if run.len < N_CONTIGUOUS {
            return PixelOutcome::NotCorner;
        }

        // Step 2: adjacent-pixel similarity check inside the result set.
        for k in 0..run.len - 1 {
            let i = (run.start + k) % RING_SIZE;
            let j = (run.start + k + 1) % RING_SIZE;
            let (xi, yi) = ring[i];
            let (xj, yj) = ring[j];
            *comparisons += 1;
            let d = self
                .distance
                .distance(Self::norm(img.at(xi, yi)), Self::norm(img.at(xj, yj)));
            if d > self.measure_threshold_2x {
                return PixelOutcome::FalsePositive;
            }
        }
        PixelOutcome::Corner(score)
    }
}

enum PixelOutcome {
    Corner(f64),
    FalsePositive,
    NotCorner,
}

struct Run {
    start: usize,
    len: usize,
}

/// Longest circular run of `true` flags.
fn longest_run(flags: &[bool; RING_SIZE]) -> Option<Run> {
    let mut best: Option<Run> = None;
    let mut current_start = 0usize;
    let mut current_len = 0usize;
    for i in 0..2 * RING_SIZE {
        if flags[i % RING_SIZE] {
            if current_len == 0 {
                current_start = i % RING_SIZE;
            }
            current_len += 1;
            let capped = current_len.min(RING_SIZE);
            if best.as_ref().is_none_or(|b| capped > b.len) {
                best = Some(Run {
                    start: current_start,
                    len: capped,
                });
            }
        } else {
            current_len = 0;
        }
    }
    best
}

fn nonmax(corners: &[Corner]) -> Vec<Corner> {
    use std::collections::HashMap;
    let by_pos: HashMap<(usize, usize), f64> =
        corners.iter().map(|c| ((c.x, c.y), c.score)).collect();
    corners
        .iter()
        .filter(|c| {
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
                        let earlier = (ny as usize, nx as usize) < (c.y, c.x);
                        if s > c.score || (s == c.score && earlier) {
                            return false;
                        }
                    }
                }
            }
            true
        })
        .copied()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::match_corners;
    use crate::synth::SceneBuilder;
    use device::units::Seconds;
    use osc::norms::NormRegime;

    fn quick_distance() -> OscillatorDistance {
        let mut cfg = NormRegime::Shallow.config();
        cfg.sim.duration = Seconds(2e-6);
        OscillatorDistance::calibrate(cfg, 0.62, 0.02, 7).expect("calibration")
    }

    fn scene() -> GrayImage {
        SceneBuilder::new(32, 32)
            .background(20)
            .rectangle(10, 10, 12, 12, 220)
            .build()
    }

    #[test]
    fn detects_square_corners_like_digital_fast() {
        let img = scene();
        let osc_out = OscFastDetector::new(quick_distance()).detect(&img);
        let digital = crate::fast::detect(&img);
        assert!(!osc_out.corners.is_empty(), "oscillator FAST found nothing");
        let m = match_corners(&digital, &osc_out.corners, 2);
        assert!(
            m.f1() > 0.6,
            "agreement too low: f1 {} (digital {}, osc {})",
            m.f1(),
            digital.len(),
            osc_out.corners.len()
        );
    }

    #[test]
    fn uniform_image_no_corners_few_comparisons() {
        let img = GrayImage::new(32, 32, 128);
        let out = OscFastDetector::new(quick_distance()).detect(&img);
        assert!(out.corners.is_empty());
        // Quick reject: 4 comparisons per interior pixel only.
        let interior = (32 - 6) * (32 - 6);
        assert_eq!(out.comparisons, 4 * interior as u64);
    }

    #[test]
    fn false_positive_rejection_kills_mixed_runs() {
        // A one-pixel-wide bright line through the centre: ring pixels along
        // the line are similar to the centre, the rest differ — giving long
        // unsigned runs that mix "brighter background" on both sides at line
        // ends. A dot (single bright pixel) is the cleanest mixed case: all
        // 16 ring pixels differ from the centre in the same direction, so it
        // survives; instead use a line END against contrasting halves.
        let mut img = GrayImage::new(16, 16, 20);
        // Left half bright, right half dark, centre pixel mid-gray: every
        // ring pixel differs from the centre, but adjacent ring pixels
        // straddle the bright/dark boundary → step 2 must reject.
        for y in 0..16 {
            for x in 0..8 {
                img.set(x, y, 250).unwrap();
            }
        }
        img.set(8, 8, 128).unwrap();
        let detector = OscFastDetector::new(quick_distance());
        let out = detector.detect(&img);
        assert!(
            out.rejected_false_positives > 0,
            "step 2 never fired: {out:?}"
        );
        assert!(
            !out.corners.iter().any(|c| c.x == 8 && c.y == 8),
            "mixed-direction pixel survived"
        );
    }

    #[test]
    fn measure_threshold_positive_and_below_2x() {
        let det = OscFastDetector::new(quick_distance());
        assert!(det.measure_threshold > 0.0);
        assert!(det.measure_threshold_2x >= det.measure_threshold);
    }

    #[test]
    fn longest_run_wraps() {
        let mut flags = [false; RING_SIZE];
        for f in flags.iter_mut().take(4) {
            *f = true;
        }
        for f in flags.iter_mut().skip(RING_SIZE - 3) {
            *f = true;
        }
        let run = longest_run(&flags).unwrap();
        assert_eq!(run.len, 7);
        assert_eq!(run.start, RING_SIZE - 3);
    }

    #[test]
    fn longest_run_none_when_empty() {
        let flags = [false; RING_SIZE];
        assert!(longest_run(&flags).is_none());
    }
}

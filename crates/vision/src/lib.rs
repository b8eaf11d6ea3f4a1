//! Computer-vision workload for the coupled-oscillator computing model
//! (paper §III-B, Fig. 6).
//!
//! The paper demonstrates its oscillator distance-norm primitive on FAST
//! corner detection. This crate provides the complete workload:
//!
//! * [`image`] — a grayscale image container with PGM I/O;
//! * [`synth`] — deterministic synthetic scenes (rectangles and triangles)
//!   so no external dataset is needed;
//! * [`bresenham`] — the radius-3 Bresenham circle of 16 pixels that FAST
//!   compares against;
//! * [`fast`] — the baseline software FAST-9 segment-test detector
//!   (Rosten & Drummond, ECCV 2006 — the paper's ref. \[45\]);
//! * [`osc_fast`] — the oscillator-norm FAST pipeline of Fig. 6: pixel
//!   intensities are encoded as gate voltages, each ring comparison is an
//!   oscillator-pair distance, and a second comparison pass rejects false
//!   positives (the "two comparison steps" the paper describes);
//! * [`metrics`] — corner-set precision/recall/F1 against a reference;
//! * [`energy`] — per-frame energy and power of both implementations,
//!   reproducing the 0.936 mW vs 3 mW comparison.
//!
//! # Example
//!
//! ```
//! use vision::synth::SceneBuilder;
//!
//! let img = SceneBuilder::new(32, 32).rectangle(8, 8, 16, 16, 200).build();
//! let corners = vision::fast::detect(&img);
//! assert!(!corners.is_empty(), "a bright rectangle has corners");
//! ```

// Deliberate style choices for numerical simulation code: `!(x > 0.0)`
// rejects NaN alongside non-positive values, and indexed loops mirror the
// mathematics they implement (state-vector strides, lattice walks).
#![allow(
    clippy::neg_cmp_op_on_partial_ord,
    clippy::needless_range_loop,
    clippy::manual_is_multiple_of,
    clippy::field_reassign_with_default
)]
pub mod bresenham;
pub mod energy;
pub mod fast;
pub mod image;
pub mod metrics;
pub mod osc_fast;
pub mod synth;

/// Crate-wide error type.
#[derive(Debug)]
pub enum VisionError {
    /// Image dimensions or coordinates were invalid.
    BadGeometry {
        /// Human-readable description.
        what: String,
    },
    /// A PGM file could not be parsed or written.
    Pgm {
        /// Human-readable description.
        what: String,
    },
    /// An oscillator-fabric operation failed.
    Osc(osc::OscError),
    /// An I/O failure during image read/write.
    Io(std::io::Error),
}

impl std::fmt::Display for VisionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VisionError::BadGeometry { what } => write!(f, "bad geometry: {what}"),
            VisionError::Pgm { what } => write!(f, "pgm format error: {what}"),
            VisionError::Osc(e) => write!(f, "oscillator error: {e}"),
            VisionError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

impl std::error::Error for VisionError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            VisionError::Osc(e) => Some(e),
            VisionError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<osc::OscError> for VisionError {
    fn from(e: osc::OscError) -> Self {
        VisionError::Osc(e)
    }
}

impl From<std::io::Error> for VisionError {
    fn from(e: std::io::Error) -> Self {
        VisionError::Io(e)
    }
}

/// A detected corner: image coordinates plus the detector's score.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Corner {
    /// Column (x) coordinate.
    pub x: usize,
    /// Row (y) coordinate.
    pub y: usize,
    /// Detector-specific strength score (higher = stronger corner).
    pub score: f64,
}

impl Corner {
    /// Chebyshev distance to another corner (used for match tolerance).
    #[must_use]
    pub fn chebyshev(&self, other: &Corner) -> usize {
        self.x.abs_diff(other.x).max(self.y.abs_diff(other.y))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corner_chebyshev() {
        let a = Corner {
            x: 3,
            y: 7,
            score: 1.0,
        };
        let b = Corner {
            x: 6,
            y: 5,
            score: 1.0,
        };
        assert_eq!(a.chebyshev(&b), 3);
        assert_eq!(a.chebyshev(&a), 0);
    }

    #[test]
    fn error_display_nonempty() {
        let e = VisionError::BadGeometry {
            what: "x out of range".into(),
        };
        assert!(e.to_string().contains("x out of range"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<VisionError>();
    }
}

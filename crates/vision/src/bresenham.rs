//! The FAST ring: a radius-3 Bresenham circle of 16 pixels.
//!
//! FAST (paper §III-B) "compares a pixel with its surrounding 16 pixels on a
//! Bresenham circle of radius 3". The offsets below are the canonical ring
//! from Rosten & Drummond's detector, ordered clockwise starting from the
//! top (12 o'clock) pixel, which makes "N contiguous pixels" checks simple
//! modular-window scans.
//!
//! # Example
//!
//! ```
//! use vision::bresenham::{ring_coords, RING_SIZE};
//!
//! let ring = ring_coords(10, 10);
//! assert_eq!(ring.len(), RING_SIZE);
//! assert_eq!(ring[0], (10, 7)); // 12 o'clock
//! ```

/// Number of pixels on the radius-3 Bresenham circle.
pub const RING_SIZE: usize = 16;

/// The FAST ring margin: ring pixels extend 3 pixels from the centre.
pub const RING_RADIUS: usize = 3;

/// The 16 `(dx, dy)` offsets of the radius-3 Bresenham circle, clockwise
/// from 12 o'clock.
const OFFSETS: [(i32, i32); RING_SIZE] = [
    (0, -3),
    (1, -3),
    (2, -2),
    (3, -1),
    (3, 0),
    (3, 1),
    (2, 2),
    (1, 3),
    (0, 3),
    (-1, 3),
    (-2, 2),
    (-3, 1),
    (-3, 0),
    (-3, -1),
    (-2, -2),
    (-1, -3),
];

/// The absolute ring coordinates around centre `(x, y)`.
///
/// The caller must guarantee a [`RING_RADIUS`] interior margin (see
/// [`crate::image::GrayImage::in_interior`]); offsets are then always in
/// bounds.
#[must_use]
pub fn ring_coords(x: usize, y: usize) -> [(usize, usize); RING_SIZE] {
    let mut out = [(0usize, 0usize); RING_SIZE];
    for (slot, &(dx, dy)) in out.iter_mut().zip(OFFSETS.iter()) {
        *slot = ((x as i32 + dx) as usize, (y as i32 + dy) as usize);
    }
    out
}

/// Checks whether any circular window of `n` contiguous `true` values exists
/// in `flags` (the FAST segment test).
#[must_use]
pub fn has_contiguous_run(flags: &[bool; RING_SIZE], n: usize) -> bool {
    if n == 0 {
        return true;
    }
    if n > RING_SIZE {
        return false;
    }
    // Longest circular run of `true`.
    let mut best = 0usize;
    let mut current = 0usize;
    // Scanning twice around the ring captures wrap-around runs; cap the
    // count at RING_SIZE for the all-true case.
    for i in 0..2 * RING_SIZE {
        if flags[i % RING_SIZE] {
            current += 1;
            best = best.max(current.min(RING_SIZE));
        } else {
            current = 0;
        }
    }
    best >= n
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn offsets_are_radius_three() {
        for &(dx, dy) in &OFFSETS {
            let r2 = dx * dx + dy * dy;
            // Bresenham radius-3 circle: squared radius 8..=10.
            assert!((8..=10).contains(&r2), "({dx},{dy}) has r² = {r2}");
        }
    }

    #[test]
    fn offsets_are_distinct() {
        let mut seen = std::collections::HashSet::new();
        for &o in &OFFSETS {
            assert!(seen.insert(o), "duplicate offset {o:?}");
        }
    }

    #[test]
    fn offsets_are_clockwise_contiguous() {
        // Adjacent ring pixels are at most 1 pixel apart in each axis.
        let ring = OFFSETS;
        for i in 0..RING_SIZE {
            let (x0, y0) = ring[i];
            let (x1, y1) = ring[(i + 1) % RING_SIZE];
            assert!((x1 - x0).abs() <= 1 && (y1 - y0).abs() <= 1);
        }
    }

    #[test]
    fn coords_translate() {
        let coords = ring_coords(10, 10);
        assert_eq!(coords[0], (10, 7));
        assert_eq!(coords[8], (10, 13));
        assert_eq!(coords[4], (13, 10));
        assert_eq!(coords[12], (7, 10));
    }

    #[test]
    fn contiguous_run_simple() {
        let mut flags = [false; RING_SIZE];
        for f in flags.iter_mut().take(9) {
            *f = true;
        }
        assert!(has_contiguous_run(&flags, 9));
        assert!(!has_contiguous_run(&flags, 10));
    }

    #[test]
    fn contiguous_run_wraps() {
        let mut flags = [false; RING_SIZE];
        // 5 at the end + 5 at the start = wrap-around run of 10.
        for f in flags.iter_mut().take(5) {
            *f = true;
        }
        for f in flags.iter_mut().skip(RING_SIZE - 5) {
            *f = true;
        }
        assert!(has_contiguous_run(&flags, 10));
        assert!(!has_contiguous_run(&flags, 11));
    }

    #[test]
    fn contiguous_run_all_true() {
        let flags = [true; RING_SIZE];
        assert!(has_contiguous_run(&flags, RING_SIZE));
        assert!(!has_contiguous_run(&flags, RING_SIZE + 1));
    }

    #[test]
    fn contiguous_run_edge_counts() {
        let flags = [false; RING_SIZE];
        assert!(has_contiguous_run(&flags, 0));
        assert!(!has_contiguous_run(&flags, 1));
    }
}

//! Deterministic synthetic scenes.
//!
//! The environment has no image datasets, so the corner-detection
//! experiments run on generated scenes with *known* corner locations:
//! axis-aligned rectangles and triangles.
//! [`SceneBuilder`] composes primitives; the ground truth corner list comes
//! from the rectangle/triangle vertices.
//!
//! # Example
//!
//! ```
//! use vision::synth::SceneBuilder;
//!
//! let img = SceneBuilder::new(64, 64)
//!     .background(30)
//!     .rectangle(10, 10, 20, 15, 220)
//!     .build();
//! assert_eq!(img.width(), 64);
//! ```

use crate::image::GrayImage;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Shape {
    Rectangle {
        x: usize,
        y: usize,
        w: usize,
        h: usize,
        value: u8,
    },
    Triangle {
        // Axis-aligned right triangle with the right angle at (x, y).
        x: usize,
        y: usize,
        size: usize,
        value: u8,
    },
}

/// Composable synthetic-scene builder.
#[derive(Debug, Clone, PartialEq)]
pub struct SceneBuilder {
    width: usize,
    height: usize,
    background: u8,
    shapes: Vec<Shape>,
}

impl SceneBuilder {
    /// Starts a scene of the given size with a dark background.
    ///
    /// # Panics
    ///
    /// Panics when either dimension is zero.
    #[must_use]
    pub fn new(width: usize, height: usize) -> Self {
        assert!(width > 0 && height > 0, "scene dimensions must be nonzero");
        SceneBuilder {
            width,
            height,
            background: 20,
            shapes: Vec::new(),
        }
    }

    /// Sets the background intensity.
    #[must_use]
    pub fn background(mut self, value: u8) -> Self {
        self.background = value;
        self
    }

    /// Adds a filled axis-aligned rectangle (clipped to the image).
    #[must_use]
    pub fn rectangle(mut self, x: usize, y: usize, w: usize, h: usize, value: u8) -> Self {
        self.shapes.push(Shape::Rectangle { x, y, w, h, value });
        self
    }

    /// Adds a filled axis-aligned right triangle with legs of `size` pixels
    /// and the right angle at `(x, y)` (clipped to the image).
    #[must_use]
    pub fn triangle(mut self, x: usize, y: usize, size: usize, value: u8) -> Self {
        self.shapes.push(Shape::Triangle { x, y, size, value });
        self
    }

    /// Ground-truth corner locations of the composed shapes: rectangle
    /// vertices and triangle vertices that lie inside the image interior
    /// (3-pixel margin, where FAST can respond).
    #[must_use]
    pub fn ground_truth_corners(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        let interior =
            |x: usize, y: usize| x >= 3 && y >= 3 && x + 3 < self.width && y + 3 < self.height;
        for shape in &self.shapes {
            match *shape {
                Shape::Rectangle { x, y, w, h, .. } => {
                    if w == 0 || h == 0 {
                        continue;
                    }
                    let x1 = (x + w - 1).min(self.width - 1);
                    let y1 = (y + h - 1).min(self.height - 1);
                    for &(cx, cy) in &[(x, y), (x1, y), (x, y1), (x1, y1)] {
                        if interior(cx, cy) {
                            out.push((cx, cy));
                        }
                    }
                }
                Shape::Triangle { x, y, size, .. } => {
                    if size == 0 {
                        continue;
                    }
                    let xe = (x + size - 1).min(self.width - 1);
                    let ye = (y + size - 1).min(self.height - 1);
                    for &(cx, cy) in &[(x, y), (xe, y), (x, ye)] {
                        if interior(cx, cy) {
                            out.push((cx, cy));
                        }
                    }
                }
            }
        }
        out
    }

    /// Renders the scene.
    #[must_use]
    pub fn build(&self) -> GrayImage {
        let mut img = GrayImage::new(self.width, self.height, self.background);
        for shape in &self.shapes {
            match *shape {
                Shape::Rectangle { x, y, w, h, value } => {
                    for yy in y..(y + h).min(self.height) {
                        for xx in x..(x + w).min(self.width) {
                            img.set(xx, yy, value).expect("clipped coords");
                        }
                    }
                }
                Shape::Triangle { x, y, size, value } => {
                    for dy in 0..size {
                        let yy = y + dy;
                        if yy >= self.height {
                            break;
                        }
                        // Row dy spans size − dy pixels from the left leg.
                        for dx in 0..(size - dy) {
                            let xx = x + dx;
                            if xx >= self.width {
                                break;
                            }
                            img.set(xx, yy, value).expect("clipped coords");
                        }
                    }
                }
            }
        }
        img
    }
}

/// The standard benchmark scene used across the corner-detection
/// experiments: two rectangles and a triangle on a dark background.
#[must_use]
pub fn benchmark_scene(size: usize) -> SceneBuilder {
    let s = size.max(32);
    SceneBuilder::new(s, s)
        .background(30)
        .rectangle(s / 8, s / 8, s / 4, s / 5, 210)
        .rectangle(s / 2, s / 3, s / 3, s / 4, 140)
        .triangle(s / 6, (2 * s) / 3, s / 5, 230)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rectangle_rendered() {
        let img = SceneBuilder::new(16, 16)
            .background(10)
            .rectangle(4, 4, 4, 4, 200)
            .build();
        assert_eq!(img.at(5, 5), 200);
        assert_eq!(img.at(0, 0), 10);
        assert_eq!(img.at(8, 8), 10);
    }

    #[test]
    fn rectangle_clips_at_border() {
        let img = SceneBuilder::new(8, 8).rectangle(6, 6, 10, 10, 99).build();
        assert_eq!(img.at(7, 7), 99);
    }

    #[test]
    fn triangle_shape() {
        let img = SceneBuilder::new(16, 16)
            .background(0)
            .triangle(2, 2, 6, 100)
            .build();
        assert_eq!(img.at(2, 2), 100); // right-angle vertex
        assert_eq!(img.at(7, 2), 100); // end of the top row
        assert_eq!(img.at(2, 7), 100); // bottom of the left leg
        assert_eq!(img.at(7, 7), 0); // hypotenuse side empty
    }

    #[test]
    fn ground_truth_inside_interior_only() {
        let builder = SceneBuilder::new(32, 32).rectangle(0, 0, 10, 10, 200);
        let corners = builder.ground_truth_corners();
        // Vertices at (0,0), (9,0), (0,9) fall outside the 3-px interior;
        // only (9,9) qualifies.
        assert_eq!(corners, vec![(9, 9)]);
    }

    #[test]
    fn benchmark_scene_has_ground_truth() {
        let b = benchmark_scene(64);
        let corners = b.ground_truth_corners();
        assert!(corners.len() >= 8, "got {corners:?}");
        let img = b.build();
        assert_eq!(img.width(), 64);
    }
}

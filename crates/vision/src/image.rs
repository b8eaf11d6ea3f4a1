//! Grayscale image container and PGM I/O.
//!
//! 8-bit grayscale is all FAST needs. Pixels are stored row-major;
//! `(x, y)` indexing is column-then-row to match the computer-vision
//! convention.
//!
//! # Example
//!
//! ```
//! use vision::image::GrayImage;
//!
//! let mut img = GrayImage::new(4, 3, 0);
//! img.set(2, 1, 200)?;
//! assert_eq!(img.get(2, 1)?, 200);
//! assert_eq!(img.width(), 4);
//! # Ok::<(), vision::VisionError>(())
//! ```

use crate::VisionError;
use std::io::{BufRead, Write};

/// An 8-bit grayscale image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GrayImage {
    width: usize,
    height: usize,
    pixels: Vec<u8>,
}

impl GrayImage {
    /// Creates an image filled with `fill`.
    ///
    /// # Panics
    ///
    /// Panics when either dimension is zero.
    #[must_use]
    pub fn new(width: usize, height: usize, fill: u8) -> Self {
        assert!(width > 0 && height > 0, "image dimensions must be nonzero");
        GrayImage {
            width,
            height,
            pixels: vec![fill; width * height],
        }
    }

    /// Builds an image from row-major pixel data.
    ///
    /// # Errors
    ///
    /// Returns [`VisionError::BadGeometry`] when `pixels.len()` ≠
    /// `width · height` or a dimension is zero.
    pub fn from_pixels(width: usize, height: usize, pixels: Vec<u8>) -> Result<Self, VisionError> {
        if width == 0 || height == 0 {
            return Err(VisionError::BadGeometry {
                what: "image dimensions must be nonzero".into(),
            });
        }
        if pixels.len() != width * height {
            return Err(VisionError::BadGeometry {
                what: format!(
                    "pixel buffer has {} bytes, expected {}",
                    pixels.len(),
                    width * height
                ),
            });
        }
        Ok(GrayImage {
            width,
            height,
            pixels,
        })
    }

    /// Image width in pixels.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Image height in pixels.
    #[must_use]
    pub fn height(&self) -> usize {
        self.height
    }

    /// Pixel at `(x, y)`.
    ///
    /// # Errors
    ///
    /// Returns [`VisionError::BadGeometry`] out of bounds.
    pub fn get(&self, x: usize, y: usize) -> Result<u8, VisionError> {
        self.index(x, y).map(|i| self.pixels[i])
    }

    /// Pixel at `(x, y)` without bounds checking against a `Result`; callers
    /// that have already validated coordinates (hot loops) use this.
    ///
    /// # Panics
    ///
    /// Panics when out of bounds.
    #[must_use]
    pub fn at(&self, x: usize, y: usize) -> u8 {
        assert!(x < self.width && y < self.height, "pixel out of bounds");
        self.pixels[y * self.width + x]
    }

    /// Sets the pixel at `(x, y)`.
    ///
    /// # Errors
    ///
    /// Returns [`VisionError::BadGeometry`] out of bounds.
    pub fn set(&mut self, x: usize, y: usize, value: u8) -> Result<(), VisionError> {
        let i = self.index(x, y)?;
        self.pixels[i] = value;
        Ok(())
    }

    fn index(&self, x: usize, y: usize) -> Result<usize, VisionError> {
        if x >= self.width || y >= self.height {
            return Err(VisionError::BadGeometry {
                what: format!(
                    "pixel ({x}, {y}) outside {}x{} image",
                    self.width, self.height
                ),
            });
        }
        Ok(y * self.width + x)
    }

    /// Whether `(x, y)` lies at least `margin` pixels away from every edge
    /// (FAST needs a 3-pixel margin for its ring).
    #[must_use]
    pub fn in_interior(&self, x: usize, y: usize, margin: usize) -> bool {
        x >= margin && y >= margin && x + margin < self.width && y + margin < self.height
    }

    /// Writes the image as binary PGM (P5).
    ///
    /// # Errors
    ///
    /// Returns [`VisionError::Io`] on write failure.
    pub fn write_pgm<W: Write>(&self, mut writer: W) -> Result<(), VisionError> {
        writeln!(writer, "P5\n{} {}\n255", self.width, self.height)?;
        writer.write_all(&self.pixels)?;
        Ok(())
    }

    /// Reads a binary PGM (P5) image.
    ///
    /// # Errors
    ///
    /// * [`VisionError::Pgm`] on malformed headers or unsupported maxval.
    /// * [`VisionError::Io`] on read failure.
    pub fn read_pgm<R: BufRead>(mut reader: R) -> Result<Self, VisionError> {
        let mut header = Vec::new();
        // Read header tokens: magic, width, height, maxval — skipping
        // comments — then a single whitespace byte before the raster.
        let mut tokens: Vec<String> = Vec::new();
        let mut buf = [0u8; 1];
        let mut token = String::new();
        let mut in_comment = false;
        while tokens.len() < 4 {
            let n = std::io::Read::read(&mut reader, &mut buf)?;
            if n == 0 {
                return Err(VisionError::Pgm {
                    what: "unexpected end of header".into(),
                });
            }
            header.push(buf[0]);
            let c = buf[0] as char;
            if in_comment {
                if c == '\n' {
                    in_comment = false;
                }
                continue;
            }
            if c == '#' {
                in_comment = true;
                continue;
            }
            if c.is_whitespace() {
                if !token.is_empty() {
                    tokens.push(std::mem::take(&mut token));
                }
            } else {
                token.push(c);
            }
        }
        if tokens[0] != "P5" {
            return Err(VisionError::Pgm {
                what: format!("unsupported magic `{}`", tokens[0]),
            });
        }
        let parse = |s: &str| -> Result<usize, VisionError> {
            s.parse().map_err(|_| VisionError::Pgm {
                what: format!("bad header number `{s}`"),
            })
        };
        let width = parse(&tokens[1])?;
        let height = parse(&tokens[2])?;
        let maxval = parse(&tokens[3])?;
        if maxval != 255 {
            return Err(VisionError::Pgm {
                what: format!("unsupported maxval {maxval}"),
            });
        }
        let mut pixels = vec![0u8; width * height];
        std::io::Read::read_exact(&mut reader, &mut pixels).map_err(|e| VisionError::Pgm {
            what: format!("raster truncated: {e}"),
        })?;
        GrayImage::from_pixels(width, height, pixels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let mut img = GrayImage::new(5, 4, 7);
        assert_eq!(img.width(), 5);
        assert_eq!(img.height(), 4);
        assert_eq!(img.get(4, 3).unwrap(), 7);
        img.set(0, 0, 255).unwrap();
        assert_eq!(img.at(0, 0), 255);
    }

    #[test]
    fn out_of_bounds_rejected() {
        let mut img = GrayImage::new(3, 3, 0);
        assert!(img.get(3, 0).is_err());
        assert!(img.get(0, 3).is_err());
        assert!(img.set(9, 9, 1).is_err());
    }

    #[test]
    fn from_pixels_validates_length() {
        assert!(GrayImage::from_pixels(2, 2, vec![0; 3]).is_err());
        assert!(GrayImage::from_pixels(2, 2, vec![0; 4]).is_ok());
        assert!(GrayImage::from_pixels(0, 2, vec![]).is_err());
    }

    #[test]
    fn interior_margin() {
        let img = GrayImage::new(10, 10, 0);
        assert!(img.in_interior(3, 3, 3));
        assert!(img.in_interior(6, 6, 3));
        assert!(!img.in_interior(2, 5, 3));
        assert!(!img.in_interior(5, 7, 3));
    }

    #[test]
    fn pgm_roundtrip() {
        let img = GrayImage::from_pixels(3, 2, vec![0, 50, 100, 150, 200, 250]).unwrap();
        let mut buf = Vec::new();
        img.write_pgm(&mut buf).unwrap();
        let back = GrayImage::read_pgm(&buf[..]).unwrap();
        assert_eq!(img, back);
    }

    #[test]
    fn pgm_with_comment() {
        let mut data = b"P5\n# a comment line\n2 1\n255\n".to_vec();
        data.extend_from_slice(&[10, 20]);
        let img = GrayImage::read_pgm(&data[..]).unwrap();
        assert_eq!((img.at(0, 0), img.at(1, 0)), (10, 20));
    }

    #[test]
    fn pgm_rejects_bad_magic() {
        let data = b"P2\n2 1\n255\n10 20".to_vec();
        assert!(GrayImage::read_pgm(&data[..]).is_err());
    }

    #[test]
    fn pgm_rejects_truncated_raster() {
        let mut data = b"P5\n4 4\n255\n".to_vec();
        data.extend_from_slice(&[1, 2, 3]);
        assert!(GrayImage::read_pgm(&data[..]).is_err());
    }

    #[test]
    #[should_panic(expected = "dimensions must be nonzero")]
    fn zero_dimension_panics() {
        let _ = GrayImage::new(0, 5, 0);
    }
}

//! Synthetic datasets for the RBM experiments.
//!
//! The environment ships no MNIST, so the mode-assisted-training experiment
//! (paper refs. [55, 57]) runs on **bars-and-stripes** — the standard small
//! generative benchmark with exactly enumerable likelihood — plus a
//! labeled version for the downstream classification measurement.
//!
//! # Example
//!
//! ```
//! use mem::datasets::bars_and_stripes;
//!
//! let data = bars_and_stripes(3);
//! // 2·(2³ − 2) distinct non-uniform patterns of 9 pixels.
//! assert_eq!(data.len(), 12);
//! assert!(data.iter().all(|p| p.pixels.len() == 9));
//! ```

/// One labeled binary pattern.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Pattern {
    /// Row-major pixels of an `n × n` image.
    pub pixels: Vec<bool>,
    /// `true` for stripes (constant rows), `false` for bars (constant
    /// columns).
    pub is_stripe: bool,
}

/// The full bars-and-stripes set on an `n × n` grid: every row pattern
/// (stripes) and column pattern (bars), excluding the all-on/all-off images
/// (which are ambiguous).
#[must_use]
pub fn bars_and_stripes(n: usize) -> Vec<Pattern> {
    let mut out = Vec::new();
    for bits in 1..((1u32 << n) - 1) {
        // Stripes: row i is on iff bit i set.
        let mut stripe = vec![false; n * n];
        let mut bar = vec![false; n * n];
        for r in 0..n {
            for c in 0..n {
                if bits >> r & 1 == 1 {
                    stripe[r * n + c] = true;
                }
                if bits >> c & 1 == 1 {
                    bar[r * n + c] = true;
                }
            }
        }
        out.push(Pattern {
            pixels: stripe,
            is_stripe: true,
        });
        out.push(Pattern {
            pixels: bar,
            is_stripe: false,
        });
    }
    out
}

/// Appends a one-hot label pair to each pattern's pixels:
/// `[pixels…, is_bar, is_stripe]` — the joint visible layer used by the
/// classification RBM.
#[must_use]
pub fn with_label_units(patterns: &[Pattern]) -> Vec<Vec<bool>> {
    patterns
        .iter()
        .map(|p| {
            let mut v = p.pixels.clone();
            v.push(!p.is_stripe);
            v.push(p.is_stripe);
            v
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_size_and_shape() {
        let d = bars_and_stripes(2);
        assert_eq!(d.len(), 2 * (4 - 2));
        assert!(d.iter().all(|p| p.pixels.len() == 4));
        let d3 = bars_and_stripes(3);
        assert_eq!(d3.len(), 12);
    }

    #[test]
    fn stripes_have_constant_rows() {
        for p in bars_and_stripes(3).iter().filter(|p| p.is_stripe) {
            for r in 0..3 {
                let row: Vec<bool> = (0..3).map(|c| p.pixels[r * 3 + c]).collect();
                assert!(row.iter().all(|&x| x == row[0]), "{p:?}");
            }
        }
    }

    #[test]
    fn bars_have_constant_columns() {
        for p in bars_and_stripes(3).iter().filter(|p| !p.is_stripe) {
            for c in 0..3 {
                let col: Vec<bool> = (0..3).map(|r| p.pixels[r * 3 + c]).collect();
                assert!(col.iter().all(|&x| x == col[0]), "{p:?}");
            }
        }
    }

    #[test]
    fn no_uniform_patterns() {
        for p in bars_and_stripes(3) {
            let on = p.pixels.iter().filter(|&&b| b).count();
            assert!(on > 0 && on < 9, "uniform pattern leaked: {p:?}");
        }
    }

    #[test]
    fn all_patterns_distinct_within_class() {
        let d = bars_and_stripes(3);
        let stripes: std::collections::HashSet<_> = d
            .iter()
            .filter(|p| p.is_stripe)
            .map(|p| p.pixels.clone())
            .collect();
        assert_eq!(stripes.len(), 6);
    }

    #[test]
    fn label_units_one_hot() {
        let d = bars_and_stripes(2);
        for (v, p) in with_label_units(&d).iter().zip(&d) {
            assert_eq!(v.len(), p.pixels.len() + 2);
            let (bar, stripe) = (v[v.len() - 2], v[v.len() - 1]);
            assert!(bar ^ stripe, "label must be one-hot");
            assert_eq!(stripe, p.is_stripe);
        }
    }
}

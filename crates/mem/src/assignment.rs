//! Boolean assignments.
//!
//! A thin, fast bit-vector of variable values shared by every solver, plus
//! the conversions the DMM needs (continuous voltages ↦ booleans by sign
//! thresholding — the "digital" readout that makes DMMs scalable).
//!
//! # Example
//!
//! ```
//! use mem::assignment::Assignment;
//!
//! let mut a = Assignment::new_false(3);
//! a.set(1, true);
//! assert!(!a.value(0) && a.value(1));
//! assert_eq!(a.to_bools(), vec![false, true, false]);
//! ```

use numerics::rng::Rng;

/// An assignment of boolean values to `n` variables.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Assignment {
    values: Vec<bool>,
}

impl Assignment {
    /// All-false assignment.
    #[must_use]
    pub fn new_false(n_vars: usize) -> Self {
        Assignment {
            values: vec![false; n_vars],
        }
    }

    /// Builds from a slice of booleans.
    #[must_use]
    pub fn from_bools(values: &[bool]) -> Self {
        Assignment {
            values: values.to_vec(),
        }
    }

    /// Uniformly random assignment.
    pub fn random<R: Rng>(n_vars: usize, rng: &mut R) -> Self {
        Assignment {
            values: (0..n_vars).map(|_| rng.gen()).collect(),
        }
    }

    /// Thresholds continuous DMM voltages: `v > 0 ↦ true`.
    #[must_use]
    pub fn from_voltages(voltages: &[f64]) -> Self {
        let mut assignment = Assignment::new_false(0);
        assignment.set_from_voltages(voltages);
        assignment
    }

    /// [`Assignment::from_voltages`] into this assignment's own storage —
    /// what a solver calls at every checkpoint of a trajectory.
    pub fn set_from_voltages(&mut self, voltages: &[f64]) {
        self.values.clear();
        self.values.extend(voltages.iter().map(|&v| v > 0.0));
    }

    /// Number of variables.
    #[must_use]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the assignment is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The value of variable `var`.
    ///
    /// # Panics
    ///
    /// Panics when `var` is out of range.
    #[must_use]
    pub fn value(&self, var: usize) -> bool {
        self.values[var]
    }

    /// Sets the value of variable `var`.
    ///
    /// # Panics
    ///
    /// Panics when `var` is out of range.
    pub fn set(&mut self, var: usize, value: bool) {
        self.values[var] = value;
    }

    /// Flips variable `var`.
    ///
    /// # Panics
    ///
    /// Panics when `var` is out of range.
    pub fn flip(&mut self, var: usize) {
        self.values[var] = !self.values[var];
    }

    /// The values as a boolean vector.
    #[must_use]
    pub fn to_bools(&self) -> Vec<bool> {
        self.values.clone()
    }

    /// The values as ±1 spins (`true ↦ +1`), the Ising-side convention.
    #[must_use]
    pub fn to_spins(&self) -> Vec<i8> {
        self.values
            .iter()
            .map(|&b| if b { 1 } else { -1 })
            .collect()
    }

    /// Hamming distance to another assignment.
    ///
    /// # Panics
    ///
    /// Panics when lengths differ.
    #[must_use]
    pub fn hamming(&self, other: &Assignment) -> usize {
        assert_eq!(self.values.len(), other.values.len());
        self.values
            .iter()
            .zip(&other.values)
            .filter(|(a, b)| a != b)
            .count()
    }
}

impl std::fmt::Display for Assignment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for &v in &self.values {
            write!(f, "{}", u8::from(v))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use numerics::rng::rng_from_seed;

    #[test]
    fn construction_and_mutation() {
        let mut a = Assignment::new_false(4);
        assert_eq!(a.len(), 4);
        a.set(2, true);
        a.flip(0);
        a.flip(0);
        assert_eq!(a.to_bools(), vec![false, false, true, false]);
    }

    #[test]
    fn from_voltages_thresholds_at_zero() {
        let a = Assignment::from_voltages(&[0.9, -0.3, 0.0, 0.001]);
        assert_eq!(a.to_bools(), vec![true, false, false, true]);
    }

    #[test]
    fn spins_convention() {
        let a = Assignment::from_bools(&[true, false]);
        assert_eq!(a.to_spins(), vec![1, -1]);
    }

    #[test]
    fn hamming_distance() {
        let a = Assignment::from_bools(&[true, false, true]);
        let b = Assignment::from_bools(&[true, true, false]);
        assert_eq!(a.hamming(&b), 2);
        assert_eq!(a.hamming(&a), 0);
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let a = Assignment::random(16, &mut rng_from_seed(3));
        let b = Assignment::random(16, &mut rng_from_seed(3));
        assert_eq!(a, b);
    }

    #[test]
    fn display_bits() {
        let a = Assignment::from_bools(&[true, false, true]);
        assert_eq!(a.to_string(), "101");
    }
}

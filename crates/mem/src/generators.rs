//! Instance generators.
//!
//! * [`random_ksat`] — uniform random k-SAT at a chosen clause ratio (the
//!   hardness knob; random 3-SAT is hardest near ratio ≈ 4.27).
//! * [`planted_3sat`] — 3-SAT with a known ("planted") satisfying
//!   assignment, used when experiments must guarantee satisfiability (noise
//!   robustness, scaling sweeps).
//! * [`frustrated_loop_ising`] — the spin-glass benchmark of the paper's
//!   ref. \[56\]: planted frustrated loops on an `L×L` lattice whose ground
//!   state and ground energy are known by construction.
//!
//! # Example
//!
//! ```
//! use mem::generators::planted_3sat;
//!
//! let instance = planted_3sat(30, 4.2, 7)?;
//! assert!(instance.formula.is_satisfied(&instance.planted));
//! # Ok::<(), mem::MemError>(())
//! ```

use crate::assignment::Assignment;
use crate::cnf::{Clause, Formula, Literal};
use crate::ising::IsingModel;
use crate::MemError;
use numerics::rng::Rng;
use numerics::rng::{rng_from_seed, sample_indices};

/// A generated satisfiable instance with its planted solution.
#[derive(Debug, Clone, PartialEq)]
pub struct PlantedInstance {
    /// The formula.
    pub formula: Formula,
    /// A satisfying assignment used during generation.
    pub planted: Assignment,
}

/// Uniform random k-SAT: `⌈ratio·n⌉` clauses of `k` distinct variables with
/// random polarities.
///
/// # Errors
///
/// Returns [`MemError::Parameter`] for `k == 0`, `k > n_vars`, or a
/// non-positive ratio.
pub fn random_ksat(n_vars: usize, k: usize, ratio: f64, seed: u64) -> Result<Formula, MemError> {
    if k == 0 || k > n_vars {
        return Err(MemError::Parameter {
            name: "k",
            reason: "clause width must satisfy 1 <= k <= n_vars",
        });
    }
    if !(ratio > 0.0) {
        return Err(MemError::Parameter {
            name: "ratio",
            reason: "clause ratio must be positive",
        });
    }
    let mut rng = rng_from_seed(seed);
    let n_clauses = (ratio * n_vars as f64).ceil() as usize;
    let mut clauses = Vec::with_capacity(n_clauses);
    for _ in 0..n_clauses {
        let vars = sample_indices(&mut rng, n_vars, k);
        let lits: Vec<Literal> = vars
            .into_iter()
            .map(|v| {
                if rng.gen() {
                    Literal::positive(v)
                } else {
                    Literal::negative(v)
                }
            })
            .collect();
        clauses.push(Clause::new(lits).expect("distinct sampled variables"));
    }
    Formula::new(n_vars, clauses)
}

/// Planted random 3-SAT: draws a hidden assignment, then samples clauses
/// uniformly among those satisfied by it (rejection sampling), giving a
/// guaranteed-satisfiable instance that is still hard near the transition
/// ratio.
///
/// # Errors
///
/// Returns [`MemError::Parameter`] for fewer than 3 variables or a
/// non-positive ratio.
pub fn planted_3sat(n_vars: usize, ratio: f64, seed: u64) -> Result<PlantedInstance, MemError> {
    if n_vars < 3 {
        return Err(MemError::Parameter {
            name: "n_vars",
            reason: "planted 3-SAT needs at least 3 variables",
        });
    }
    if !(ratio > 0.0) {
        return Err(MemError::Parameter {
            name: "ratio",
            reason: "clause ratio must be positive",
        });
    }
    let mut rng = rng_from_seed(seed);
    let planted = Assignment::random(n_vars, &mut rng);
    let n_clauses = (ratio * n_vars as f64).ceil() as usize;
    let mut clauses = Vec::with_capacity(n_clauses);
    while clauses.len() < n_clauses {
        let vars = sample_indices(&mut rng, n_vars, 3);
        let lits: Vec<Literal> = vars
            .iter()
            .map(|&v| {
                if rng.gen() {
                    Literal::positive(v)
                } else {
                    Literal::negative(v)
                }
            })
            .collect();
        // Keep only clauses the planted assignment satisfies.
        let satisfied = lits.iter().any(|l| l.eval(planted.value(l.var())));
        if satisfied {
            clauses.push(Clause::new(lits).expect("distinct sampled variables"));
        }
    }
    let formula = Formula::new(n_vars, clauses)?;
    Ok(PlantedInstance { formula, planted })
}

/// A frustrated-loop spin-glass instance with its planted ground state and
/// ground energy.
#[derive(Debug, Clone, PartialEq)]
pub struct FrustratedLoopInstance {
    /// The Ising model (couplings only, no fields).
    pub model: IsingModel,
    /// A planted ground-state configuration (as ±1 spins encoded in an
    /// assignment).
    pub planted: Assignment,
    /// The planted ground-state energy.
    pub ground_energy: f64,
}

/// Generates a frustrated-loop instance on an `side × side` square lattice
/// (Hen et al.'s planted benchmark, the ref.-\[56\] workload):
/// `n_loops` random lattice loops are laid down; each loop contributes
/// ferromagnetic couplings (relative to a hidden gauge) except one bond,
/// which is frustrated. By construction the hidden gauge is a ground state
/// with energy `Σ_loops (2 − len(loop))` (in units of |J| = 1).
///
/// # Errors
///
/// Returns [`MemError::Parameter`] for `side < 2` or `n_loops == 0`.
pub fn frustrated_loop_ising(
    side: usize,
    n_loops: usize,
    seed: u64,
) -> Result<FrustratedLoopInstance, MemError> {
    if side < 2 {
        return Err(MemError::Parameter {
            name: "side",
            reason: "lattice side must be at least 2",
        });
    }
    if n_loops == 0 {
        return Err(MemError::Parameter {
            name: "n_loops",
            reason: "need at least one loop",
        });
    }
    let n = side * side;
    let mut rng = rng_from_seed(seed);
    // Hidden gauge: random ±1 configuration that will be a ground state.
    let gauge = Assignment::random(n, &mut rng);
    let spins = gauge.to_spins();

    let idx = |r: usize, c: usize| r * side + c;
    let mut couplings: std::collections::BTreeMap<(usize, usize), f64> =
        std::collections::BTreeMap::new();
    let mut ground_energy = 0.0;

    for _ in 0..n_loops {
        // Random rectangular loop on the lattice.
        let r0 = rng.gen_range(0..side - 1);
        let c0 = rng.gen_range(0..side - 1);
        let r1 = rng.gen_range(r0 + 1..side);
        let c1 = rng.gen_range(c0 + 1..side);
        // Collect the loop edges (perimeter of the rectangle).
        let mut edges: Vec<(usize, usize)> = Vec::new();
        for c in c0..c1 {
            edges.push((idx(r0, c), idx(r0, c + 1)));
            edges.push((idx(r1, c), idx(r1, c + 1)));
        }
        for r in r0..r1 {
            edges.push((idx(r, c0), idx(r + 1, c0)));
            edges.push((idx(r, c1), idx(r + 1, c1)));
        }
        let frustrated = rng.gen_range(0..edges.len());
        for (e, &(a, b)) in edges.iter().enumerate() {
            // Energy convention: E = −Σ J_ij s_i s_j. A satisfied
            // (ferromagnetic-in-gauge) bond has J = s_a·s_b so that
            // J·s_a·s_b = +1; the frustrated bond flips the sign.
            let aligned = (spins[a] * spins[b]) as f64;
            let j = if e == frustrated { -aligned } else { aligned };
            let key = if a < b { (a, b) } else { (b, a) };
            *couplings.entry(key).or_insert(0.0) += j;
        }
        // Loop of length L contributes −(L−1) + 1 = 2 − L at the gauge.
        ground_energy += 2.0 - edges.len() as f64;
    }

    let model = IsingModel::new(
        n,
        couplings.into_iter().map(|((a, b), j)| (a, b, j)).collect(),
        vec![0.0; n],
    )?;
    // Overlapping loops can cancel couplings; recompute the exact energy of
    // the gauge, which remains a ground state by construction.
    let ground_energy_exact = model.energy_spins(&spins);
    debug_assert!(ground_energy_exact <= ground_energy + 1e-9);
    Ok(FrustratedLoopInstance {
        model,
        planted: gauge,
        ground_energy: ground_energy_exact,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_ksat_shape() {
        let f = random_ksat(20, 3, 4.0, 1).unwrap();
        assert_eq!(f.n_vars(), 20);
        assert_eq!(f.len(), 80);
        assert!(f.clauses().iter().all(|c| c.len() == 3));
    }

    #[test]
    fn random_ksat_deterministic() {
        assert_eq!(
            random_ksat(10, 3, 4.0, 9).unwrap(),
            random_ksat(10, 3, 4.0, 9).unwrap()
        );
        assert_ne!(
            random_ksat(10, 3, 4.0, 9).unwrap(),
            random_ksat(10, 3, 4.0, 10).unwrap()
        );
    }

    #[test]
    fn random_ksat_rejects_bad_params() {
        assert!(random_ksat(5, 0, 4.0, 1).is_err());
        assert!(random_ksat(5, 6, 4.0, 1).is_err());
        assert!(random_ksat(5, 3, 0.0, 1).is_err());
    }

    #[test]
    fn planted_instance_is_satisfiable() {
        for seed in 0..5 {
            let inst = planted_3sat(25, 4.2, seed).unwrap();
            assert!(inst.formula.is_satisfied(&inst.planted), "seed {seed}");
            assert_eq!(inst.formula.len(), (4.2f64 * 25.0).ceil() as usize);
        }
    }

    #[test]
    fn planted_rejects_tiny() {
        assert!(planted_3sat(2, 4.0, 1).is_err());
    }

    #[test]
    fn frustrated_loop_gauge_is_ground_state() {
        let inst = frustrated_loop_ising(5, 6, 3).unwrap();
        let gauge_energy = inst.model.energy(&inst.planted);
        assert!((gauge_energy - inst.ground_energy).abs() < 1e-9);
        // No configuration may go below; spot check with random ones.
        let mut rng = rng_from_seed(4);
        for _ in 0..200 {
            let trial = Assignment::random(inst.model.n_spins(), &mut rng);
            assert!(inst.model.energy(&trial) >= inst.ground_energy - 1e-9);
        }
    }

    #[test]
    fn frustrated_loop_couplings_on_lattice_edges_only() {
        let side = 4;
        let inst = frustrated_loop_ising(side, 4, 8).unwrap();
        for &(a, b, _) in inst.model.couplings() {
            let (ra, ca) = (a / side, a % side);
            let (rb, cb) = (b / side, b % side);
            let dist = ra.abs_diff(rb) + ca.abs_diff(cb);
            assert_eq!(dist, 1, "non-lattice edge ({a},{b})");
        }
    }

    #[test]
    fn frustrated_loop_rejects_bad_params() {
        assert!(frustrated_loop_ising(1, 3, 1).is_err());
        assert!(frustrated_loop_ising(4, 0, 1).is_err());
    }

    #[test]
    fn frustrated_loop_deterministic() {
        let a = frustrated_loop_ising(4, 3, 11).unwrap();
        let b = frustrated_loop_ising(4, 3, 11).unwrap();
        assert_eq!(a.planted, b.planted);
        assert_eq!(a.ground_energy, b.ground_energy);
    }
}

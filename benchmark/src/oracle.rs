//! Result oracles: every result of every workload is checked against its
//! kernel by code that shares nothing with the solvers, and a rejected
//! result counts as a failed job.

use accel::family::{FamilyKernel, FamilyResult};
use accel::kernel::{Kernel, KernelResult};
use mem::cnf::Formula;
use wire::WireOutcome;

/// Slack for recomputed floating-point quantities.
const TOLERANCE: f64 = 1e-9;

pub fn satisfies(formula: &Formula, bits: &[bool]) -> bool {
    bits.len() == formula.n_vars()
        && formula.clauses().iter().all(|clause| {
            clause
                .literals()
                .iter()
                .any(|lit| lit.eval(bits[lit.var()]))
        })
}

pub fn qubo_energy(
    linear: &[(usize, f64)],
    quadratic: &[(usize, usize, f64)],
    bits: &[bool],
) -> f64 {
    let lin: f64 = linear.iter().filter(|&&(i, _)| bits[i]).map(|t| t.1).sum();
    let quad: f64 = quadratic
        .iter()
        .filter(|&&(i, j, _)| bits[i] && bits[j])
        .map(|t| t.2)
        .sum();
    lin + quad
}

pub fn coloring_conflicts(edges: &[(usize, usize)], colors: &[usize]) -> u64 {
    edges
        .iter()
        .filter(|&&(a, b)| colors[a] == colors[b])
        .count() as u64
}

/// Checks that `result` answers `kernel`.
///
/// # Errors
///
/// A one-line reason when it does not.
pub fn verify(kernel: &Kernel, result: &KernelResult) -> Result<(), String> {
    match (kernel, result) {
        (Kernel::Factor { n }, KernelResult::Factors(p, q)) => {
            if *p > 1 && *q > 1 && p.checked_mul(*q) == Some(*n) {
                Ok(())
            } else {
                Err(format!(
                    "{p} x {q} is not a nontrivial factorization of {n}"
                ))
            }
        }
        (Kernel::Search { marked, .. }, KernelResult::Found(item)) => {
            if marked.contains(item) {
                Ok(())
            } else {
                Err(format!("found item {item} is not marked"))
            }
        }
        (Kernel::DnaSimilarity { .. }, KernelResult::Similarity(s)) => {
            if s.is_finite() && (-TOLERANCE..=1.0 + TOLERANCE).contains(s) {
                Ok(())
            } else {
                Err(format!("similarity {s} outside [0, 1]"))
            }
        }
        (Kernel::SolveSat { formula }, KernelResult::SatSolution(solution)) => match solution {
            Some(bits) if satisfies(formula, bits) => Ok(()),
            Some(_) => Err("assignment leaves a clause unsatisfied".into()),
            None => Err("satisfiable formula came back unsolved".into()),
        },
        (Kernel::Compare { .. }, KernelResult::Distance(d)) => {
            if d.is_finite() && *d >= -TOLERANCE {
                Ok(())
            } else {
                Err(format!("distance {d} is not a finite non-negative number"))
            }
        }
        (
            Kernel::Family(FamilyKernel::Coloring(spec)),
            KernelResult::Family(FamilyResult::Coloring { colors, conflicts }),
        ) => {
            if colors.len() != spec.n_vertices || colors.iter().any(|&c| c >= spec.n_colors) {
                return Err(format!(
                    "colouring does not give each of {} vertices one of {} colours",
                    spec.n_vertices, spec.n_colors
                ));
            }
            let recomputed = coloring_conflicts(&spec.edges, colors);
            if recomputed == *conflicts {
                Ok(())
            } else {
                Err(format!(
                    "reported {conflicts} conflicts, recomputed {recomputed}"
                ))
            }
        }
        (
            Kernel::Family(FamilyKernel::Qubo(spec)),
            KernelResult::Family(FamilyResult::Qubo { bits, energy }),
        ) => {
            if bits.len() != spec.n_vars {
                return Err(format!("{} bits for {} variables", bits.len(), spec.n_vars));
            }
            let recomputed = qubo_energy(&spec.linear, &spec.quadratic, bits);
            if (recomputed - energy).abs() <= TOLERANCE * recomputed.abs().max(1.0) {
                Ok(())
            } else {
                Err(format!("reported energy {energy}, recomputed {recomputed}"))
            }
        }
        (kernel, result) => Err(format!(
            "result {result:?} is of the wrong kind for {}",
            kernel.describe()
        )),
    }
}

/// The bytes two outcomes must share to count as the same outcome: backend
/// name and encoded result for a completed job, the failure mode otherwise.
/// Timings (`wall_nanos`) are left out; they differ run to run.
pub fn fingerprint(outcome: &WireOutcome) -> Vec<u8> {
    match outcome {
        WireOutcome::Completed {
            backend, result, ..
        } => {
            let mut bytes = vec![0u8];
            bytes.extend_from_slice(backend.as_bytes());
            bytes.push(0);
            match wire::encode_kernel_result(result) {
                Ok(encoded) => bytes.extend_from_slice(&encoded),
                Err(e) => bytes.extend_from_slice(e.to_string().as_bytes()),
            }
            bytes
        }
        WireOutcome::Failed(msg) => [&[1u8], msg.as_bytes()].concat(),
        WireOutcome::TimedOut => vec![2],
        WireOutcome::Cancelled => vec![3],
    }
}

/// FNV-1a, used for the per-workload `outcome_digest`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn eat(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    /// Length-prefixed, so adjacent records cannot alias.
    pub fn eat_record(&mut self, bytes: &[u8]) {
        self.eat(&(bytes.len() as u64).to_le_bytes());
        self.eat(bytes);
    }
}

pub fn hash(bytes: &[u8]) -> u64 {
    let mut h = Fnv::default();
    h.eat(bytes);
    h.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use accel::family::{ColoringSpec, QuboSpec};
    use mem::generators::planted_3sat;

    #[test]
    fn factor_oracle() {
        let k = Kernel::Factor { n: 77 };
        assert!(verify(&k, &KernelResult::Factors(7, 11)).is_ok());
        assert!(verify(&k, &KernelResult::Factors(1, 77)).is_err());
        assert!(verify(&k, &KernelResult::Factors(7, 13)).is_err());
    }

    #[test]
    fn search_oracle() {
        let k = Kernel::Search {
            n_qubits: 4,
            marked: vec![3, 9],
        };
        assert!(verify(&k, &KernelResult::Found(9)).is_ok());
        assert!(verify(&k, &KernelResult::Found(8)).is_err());
    }

    #[test]
    fn dna_and_compare_oracles() {
        let dna = Kernel::DnaSimilarity {
            a: "ACGT".into(),
            b: "ACGA".into(),
            k: 2,
        };
        assert!(verify(&dna, &KernelResult::Similarity(0.5)).is_ok());
        assert!(verify(&dna, &KernelResult::Similarity(1.2)).is_err());
        assert!(verify(&dna, &KernelResult::Similarity(f64::NAN)).is_err());
        let cmp = Kernel::Compare { x: 0.1, y: 0.9 };
        assert!(verify(&cmp, &KernelResult::Distance(0.8)).is_ok());
        assert!(verify(&cmp, &KernelResult::Distance(-0.5)).is_err());
        assert!(verify(&cmp, &KernelResult::Distance(f64::INFINITY)).is_err());
    }

    #[test]
    fn sat_oracle() {
        let inst = planted_3sat(20, 4.0, 5).unwrap();
        let k = Kernel::SolveSat {
            formula: inst.formula.clone(),
        };
        let good = inst.planted.to_bools();
        assert!(verify(&k, &KernelResult::SatSolution(Some(good.clone()))).is_ok());
        // Some single flip of a planted solution at ratio 4 breaks a clause.
        let broken = (0..good.len()).any(|v| {
            let mut bad = good.clone();
            bad[v] = !bad[v];
            verify(&k, &KernelResult::SatSolution(Some(bad))).is_err()
        });
        assert!(broken);
        assert!(verify(&k, &KernelResult::SatSolution(None)).is_err());
        assert!(verify(&k, &KernelResult::SatSolution(Some(vec![true; 3]))).is_err());
    }

    #[test]
    fn coloring_oracle() {
        let k = Kernel::Family(FamilyKernel::Coloring(ColoringSpec {
            n_vertices: 4,
            n_colors: 2,
            edges: vec![(0, 1), (1, 2), (2, 3), (3, 0)],
        }));
        let ok = |colors: Vec<usize>, conflicts| {
            verify(
                &k,
                &KernelResult::Family(FamilyResult::Coloring { colors, conflicts }),
            )
        };
        assert!(ok(vec![0, 1, 0, 1], 0).is_ok());
        assert!(ok(vec![0, 0, 1, 1], 2).is_ok());
        assert!(ok(vec![0, 0, 1, 1], 0).is_err(), "under-reported conflicts");
        assert!(ok(vec![0, 1, 2, 1], 0).is_err(), "a third colour");
        assert!(ok(vec![0, 1, 0], 0).is_err(), "a vertex left out");
    }

    #[test]
    fn qubo_oracle() {
        let k = Kernel::Family(FamilyKernel::Qubo(QuboSpec {
            n_vars: 3,
            linear: vec![(0, -1.0), (1, 0.5), (2, -0.25)],
            quadratic: vec![(0, 2, 0.75), (0, 1, -2.0)],
        }));
        let ok = |bits: Vec<bool>, energy| {
            verify(
                &k,
                &KernelResult::Family(FamilyResult::Qubo { bits, energy }),
            )
        };
        assert!(ok(vec![true, true, false], -2.5).is_ok());
        assert!(ok(vec![true, true, false], -3.0).is_err());
        assert!(ok(vec![true, true], -2.5).is_err());
    }

    #[test]
    fn wrong_kind_is_rejected() {
        assert!(verify(&Kernel::Factor { n: 15 }, &KernelResult::Found(3)).is_err());
    }

    #[test]
    fn fingerprint_ignores_timing_but_not_content() {
        let outcome = |p, wall_nanos| WireOutcome::Completed {
            backend: "quantum".into(),
            result: KernelResult::Factors(p, 5),
            cost: accel::kernel::CostReport {
                device_seconds: 1e-6,
                operations: 10,
            },
            wall_nanos,
        };
        assert_eq!(fingerprint(&outcome(3, 1)), fingerprint(&outcome(3, 2)));
        assert_ne!(fingerprint(&outcome(3, 1)), fingerprint(&outcome(7, 1)));
        assert_ne!(
            fingerprint(&WireOutcome::TimedOut),
            fingerprint(&WireOutcome::Cancelled)
        );
    }
}

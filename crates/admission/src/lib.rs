//! The kernel identity the serving tier shares: what a job *is* before
//! the planner sees it.
//!
//! Two submissions that denote the same computation should share one cache
//! identity even when their syntax differs: a SAT formula with its clauses
//! permuted, a search kernel with duplicate marked items, a comparison
//! carrying `-0.0`. Each kernel family gets a *canonical form* — the
//! variant of the kernel the runtime actually executes — and an FNV-1a
//! [`CanonicalKey`] of that form, that family's arms of
//! [`accel::family::canonicalize`] and [`accel::family::canonical_key`].
//! The key is taken from the kernel as submitted: a SAT key hashes one
//! sorted clause index and builds no canonical formula. [`admit`] returns
//! both; [`routing_hash`] places a kernel on the cluster's ring. The
//! runtime's result cache and single-flight table key on this identity,
//! and so does the cluster router.
//!
//! # The byte-for-byte invariant
//!
//! The solvers behind these kernels are order-sensitive: a DMM or WalkSAT
//! run on a clause-permuted formula takes a different trajectory and may
//! return a *different satisfying assignment*. Canonicalization therefore
//! never tries to be a semantic no-op on the raw backend — instead the
//! serving runtime keys **every** submission, and the job that executes
//! (the lead of its key) executes the canonical form. A cache hit or a
//! coalesced waiter is served that execution's bytes and never builds a
//! canonical form of its own. That makes
//! `run(canonicalize(k), seed) == run(k, seed)` hold byte-for-byte by
//! construction, cold or cached alike, and it is why the canonical form
//! stays in the *original variable space*: a returned SAT assignment must
//! still satisfy the formula the client submitted.
//!
//! # Two-level keys
//!
//! The key half of admission is allowed to be more aggressive than the
//! form half. [`CanonicalKey::key`] hashes the form *after* a stable
//! first-occurrence variable renumbering (for SAT) and a coarse parameter
//! quantization (for the analog compare kernel), so α-equivalent formulas
//! and nearly-identical oscillator operands collide into one cache
//! bucket. [`CanonicalKey::exact`] hashes the canonical form verbatim.
//! Both halves must match for the cache to serve a stored result, so the
//! coarse half can only ever *group* candidates, never cause one kernel to
//! be served another kernel's bytes.

use accel::family::{canonical_key, canonicalize};
use accel::kernel::Kernel;

pub use accel::family::CanonicalKey;

/// The form the serving runtime executes for `kernel`, and the identity it
/// caches under. The runtime itself keys every submission but builds the
/// form only for the job that executes; this pairs them for a caller that
/// needs both at once.
#[must_use]
pub fn admit(kernel: &Kernel) -> (Kernel, CanonicalKey) {
    (canonicalize(kernel), canonical_key(kernel))
}

/// The consistent-hash placement of a kernel: the routing hash of its
/// canonical key.
///
/// Callers hand it the kernel as submitted; every syntactic variant of one
/// canonical kernel yields the same hash and lands on the same shard (and
/// shard-local cache). No canonical form is built.
#[must_use]
pub fn routing_hash(kernel: &Kernel) -> u64 {
    canonical_key(kernel).routing_hash()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mem::cnf::{Clause, Formula, Literal};
    use mem::generators::planted_3sat;

    fn formula(clauses: &[&[i64]]) -> Formula {
        let built: Vec<Clause> = clauses
            .iter()
            .map(|c| {
                Clause::new(
                    c.iter()
                        .map(|&d| Literal::from_dimacs(d).unwrap())
                        .collect(),
                )
                .unwrap()
            })
            .collect();
        let n_vars = clauses
            .iter()
            .flat_map(|c| c.iter())
            .map(|&d| d.unsigned_abs() as usize)
            .max()
            .unwrap();
        Formula::new(n_vars, built).unwrap()
    }

    #[test]
    fn canonicalization_is_idempotent() {
        let kernels = [
            Kernel::Factor { n: 21 },
            Kernel::Search {
                n_qubits: 4,
                marked: vec![9, 3, 3, 1],
            },
            Kernel::Compare { x: -0.0, y: 0.5 },
            Kernel::SolveSat {
                formula: formula(&[&[2, -1], &[1, 3], &[2, -1]]),
            },
            Kernel::DnaSimilarity {
                a: "ACGT".into(),
                b: "ACGA".into(),
                k: 2,
            },
        ];
        for k in kernels {
            let once = canonicalize(&k);
            assert_eq!(once, canonicalize(&once));
        }
    }

    #[test]
    fn clause_permutations_share_both_key_halves() {
        let a = Kernel::SolveSat {
            formula: formula(&[&[1, -2], &[3, 2], &[1, 2, 3]]),
        };
        let b = Kernel::SolveSat {
            formula: formula(&[&[2, 3], &[2, 1, 3], &[-2, 1]]),
        };
        assert_eq!(canonicalize(&a), canonicalize(&b));
        assert_eq!(admit(&a).1, admit(&b).1);
    }

    #[test]
    fn alpha_equivalent_formulas_share_only_the_coarse_half() {
        // x1..x3 renamed to x4..x6 (same clause structure): coarse keys
        // collide, exact keys must not — α-equivalence may bucket, never
        // serve bytes across.
        let a = Kernel::SolveSat {
            formula: formula(&[&[1, -2], &[2, 3]]),
        };
        let b = Kernel::SolveSat {
            formula: formula(&[&[4, -5], &[5, 6]]),
        };
        let (ka, kb) = (admit(&a).1, admit(&b).1);
        assert_eq!(ka.key, kb.key);
        assert_ne!(ka.exact, kb.exact);
    }

    #[test]
    fn distinct_formulas_get_distinct_keys() {
        let a = Kernel::SolveSat {
            formula: formula(&[&[1, -2], &[2, 3]]),
        };
        let b = Kernel::SolveSat {
            formula: formula(&[&[1, 2], &[2, 3]]),
        };
        let (ka, kb) = (admit(&a).1, admit(&b).1);
        assert_ne!(ka.exact, kb.exact);
        assert_ne!(ka.key, kb.key);
    }

    #[test]
    fn canonical_solution_satisfies_the_original_formula() {
        // The canonical form stays in the original variable space, so any
        // satisfying assignment transfers verbatim.
        let sat = planted_3sat(10, 3.5, 77).unwrap();
        let Kernel::SolveSat { formula: canon } = canonicalize(&Kernel::SolveSat {
            formula: sat.formula.clone(),
        }) else {
            panic!("canonical form changed family");
        };
        assert_eq!(canon.n_vars(), sat.formula.n_vars());
        assert!(sat.formula.is_satisfied(&sat.planted));
        assert!(canon.is_satisfied(&sat.planted));
    }

    #[test]
    fn negative_zero_and_quantization_behave() {
        let a = admit(&Kernel::Compare { x: -0.0, y: 0.25 });
        let b = admit(&Kernel::Compare { x: 0.0, y: 0.25 });
        assert_eq!(a.1, b.1);
        // Sub-lattice perturbation: coarse halves collide, exact differ.
        let c = admit(&Kernel::Compare {
            x: 0.5,
            y: 0.25 + 1e-9,
        });
        let d = admit(&Kernel::Compare { x: 0.5, y: 0.25 });
        assert_eq!(c.1.key, d.1.key);
        assert_ne!(c.1.exact, d.1.exact);
    }

    #[test]
    fn search_marked_items_sort_and_dedup() {
        let (canon, key) = admit(&Kernel::Search {
            n_qubits: 5,
            marked: vec![7, 1, 7, 30],
        });
        assert_eq!(
            canon,
            Kernel::Search {
                n_qubits: 5,
                marked: vec![1, 7, 30],
            }
        );
        assert_eq!(key, admit(&canon).1);
    }

    #[test]
    fn keys_are_stable_across_calls() {
        let k = Kernel::Factor { n: 35 };
        assert_eq!(admit(&k).1, admit(&k).1);
        assert_ne!(admit(&k).1, admit(&Kernel::Factor { n: 33 }).1);
    }

    #[test]
    fn routing_hash_follows_the_canonical_key() {
        // Syntactic variants of one kernel share a routing hash...
        let a = routing_hash(&Kernel::Search {
            n_qubits: 4,
            marked: vec![3, 1, 3],
        });
        let b = routing_hash(&Kernel::Search {
            n_qubits: 4,
            marked: vec![1, 3],
        });
        assert_eq!(a, b);
        // ...while distinct kernels do not.
        let c = routing_hash(&Kernel::Factor { n: 21 });
        assert_ne!(a, c);
        // And the hash mixes both key halves: flipping `exact` alone
        // moves it.
        let key = canonical_key(&Kernel::Factor { n: 21 });
        let mut flipped = key;
        flipped.exact ^= 1;
        assert_ne!(key.routing_hash(), flipped.routing_hash());
    }
}

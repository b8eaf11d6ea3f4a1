//! Property tests for the admission tier, driven by the workspace's
//! seeded RNG so every run checks the same cases.
//!
//! # What "canonicalization preserves results" means here
//!
//! The SAT solvers are clause-order sensitive: DPLL's unit propagation and
//! the DMM's trajectory both depend on clause presentation order, so a
//! permuted formula can converge to a *different satisfying assignment*
//! on the raw backend. The invariant the system guarantees is therefore a
//! serving-level one: the runtime keys every submission at the door, and
//! the job that runs for a key executes the canonical form, so
//! `run(canonicalize(k), seed) == run(k, seed)` holds byte-for-byte for
//! the serving path by construction — submitting a kernel, its canonical
//! form, or any syntactic scramble of it yields the same bytes, cold or
//! cached alike. The tests below pin exactly that:
//!
//! * scrambled kernels (permuted/duplicated SAT clauses, shuffled marked
//!   search items, `-0.0` compare operands, reversed and repeated coloring
//!   edges, split QUBO terms) share both halves of the admission identity
//!   and one canonical form, across all families;
//! * the key taken from a kernel as submitted equals the key of its built
//!   canonical form, hashed by the definition below (the SAT key hashes a
//!   sorted clause index and never builds that form), and so does the
//!   routing hash;
//! * independent runtimes serving the raw, canonical, and scrambled
//!   variants of the same kernel under the same seed produce
//!   byte-identical completed outcomes;
//! * single-flight coalescing isolates waiter cancellations: randomized
//!   cancelled subsets never perturb the lead or surviving waiters, and
//!   the statistics settle exactly.

use accel::accelerator::{Accelerator, CpuBackend};
use accel::family::{
    canonical_key, canonicalize, CanonicalKey, ColoringSpec, FamilyKernel, QuboSpec, MAX_SAT_VARS,
};
use accel::kernel::Kernel;
use accel::AccelError;
use admission::{admit, routing_hash};
use mem::cnf::{Clause, Formula, Literal};
use mem::generators::planted_3sat;
use numerics::hash::Fnv1a;
use numerics::rng::{rng_from_seed, Rng, StdRng};
use runtime::{DispatchPolicy, JobOptions, JobOutcome, Runtime, RuntimeConfig};
use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Fisher–Yates shuffle on the workspace RNG (the RNG has no shuffle of
/// its own, and determinism requires staying on the seeded stream).
fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

/// A random kernel plus a syntactic scramble denoting the same
/// computation, per family.
fn scrambled_pair(family: u32, rng: &mut StdRng) -> (Kernel, Kernel) {
    match family {
        0 => {
            // SAT: shuffle clause order, reverse literals inside each
            // clause, and duplicate a random clause.
            let base = planted_3sat(rng.gen_range(8..13usize), 3.8, rng.gen::<u64>())
                .expect("generator parameters are valid")
                .formula;
            let mut clauses: Vec<Clause> = base.clauses().to_vec();
            let dup = clauses[rng.gen_range(0..clauses.len())].clone();
            clauses.push(dup);
            shuffle(&mut clauses, rng);
            let clauses: Vec<Clause> = clauses
                .iter()
                .map(|c| {
                    let mut lits = c.literals().to_vec();
                    lits.reverse();
                    Clause::new(lits).expect("reversing literals keeps the clause valid")
                })
                .collect();
            let scrambled = Formula::new(base.n_vars(), clauses)
                .expect("same variable space as the base formula");
            (
                Kernel::SolveSat { formula: base },
                Kernel::SolveSat { formula: scrambled },
            )
        }
        1 => {
            // Search: shuffle the marked items and duplicate one.
            let n_qubits = rng.gen_range(3..8usize);
            let marked: Vec<usize> = (0..rng.gen_range(2..5usize))
                .map(|_| rng.gen_range(0..(1usize << n_qubits)))
                .collect();
            let mut scrambled = marked.clone();
            scrambled.push(marked[rng.gen_range(0..marked.len())]);
            shuffle(&mut scrambled, rng);
            (
                Kernel::Search { n_qubits, marked },
                Kernel::Search {
                    n_qubits,
                    marked: scrambled,
                },
            )
        }
        2 => {
            // Compare: a zero operand scrambles to negative zero.
            let x = if rng.gen_range(0..2u32) == 0 {
                0.0
            } else {
                rng.gen_range(0.0..1.0)
            };
            let y = rng.gen_range(0.0..1.0);
            let scrub = |v: f64| if v == 0.0 { -0.0 } else { v };
            (
                Kernel::Compare { x, y },
                Kernel::Compare {
                    x: scrub(x),
                    y: scrub(y),
                },
            )
        }
        3 => {
            // Coloring: reverse some edges, repeat one, shuffle.
            let n_vertices = rng.gen_range(4..12usize);
            let edges: Vec<(usize, usize)> = (0..rng.gen_range(2..10usize))
                .map(|_| {
                    let a = rng.gen_range(0..n_vertices - 1);
                    (a, rng.gen_range(a + 1..n_vertices))
                })
                .collect();
            let mut scrambled: Vec<(usize, usize)> = edges
                .iter()
                .map(|&(a, b)| if rng.gen::<bool>() { (b, a) } else { (a, b) })
                .collect();
            scrambled.push(edges[rng.gen_range(0..edges.len())]);
            shuffle(&mut scrambled, rng);
            let coloring = |edges| {
                Kernel::Family(FamilyKernel::Coloring(ColoringSpec {
                    n_vertices,
                    n_colors: 3,
                    edges,
                }))
            };
            (coloring(edges), coloring(scrambled))
        }
        _ => {
            // QUBO: halve one linear term into two, swap the ends of the
            // quadratic terms, shuffle both lists. Every index appears once
            // in the base, and halves add back exactly.
            let n_vars = rng.gen_range(3..9usize);
            let linear: Vec<(usize, f64)> =
                (0..n_vars).map(|i| (i, rng.gen_range(-2.0..2.0))).collect();
            let quadratic: Vec<(usize, usize, f64)> = (1..n_vars)
                .map(|j| (j - 1, j, rng.gen_range(-2.0..2.0)))
                .collect();
            let mut split = linear.clone();
            let (i, c) = split.swap_remove(rng.gen_range(0..n_vars));
            split.extend([(i, c / 2.0), (i, c / 2.0)]);
            shuffle(&mut split, rng);
            let mut swapped: Vec<(usize, usize, f64)> =
                quadratic.iter().map(|&(i, j, v)| (j, i, v)).collect();
            shuffle(&mut swapped, rng);
            let qubo = |linear, quadratic| {
                Kernel::Family(FamilyKernel::Qubo(QuboSpec {
                    n_vars,
                    linear,
                    quadratic,
                }))
            };
            (qubo(linear, quadratic), qubo(split, swapped))
        }
    }
}

/// Families `scrambled_pair` draws from.
const SCRAMBLED_FAMILIES: u32 = 5;

#[test]
fn scrambles_share_one_canonical_identity() {
    let mut rng = rng_from_seed(0x5eed_ad31);
    for round in 0..200 {
        let (raw, scrambled) = scrambled_pair(round % SCRAMBLED_FAMILIES, &mut rng);
        let (canon_raw, key_raw) = admit(&raw);
        let (canon_scrambled, key_scrambled) = admit(&scrambled);
        assert_eq!(
            canon_raw, canon_scrambled,
            "round {round}: scramble changed the canonical form"
        );
        assert_eq!(
            key_raw, key_scrambled,
            "round {round}: scramble changed the admission identity"
        );
        // Canonicalization is idempotent, and the canonical form is its
        // own fixed point under re-admission.
        assert_eq!(canonicalize(&canon_raw), canon_raw);
        assert_eq!(admit(&canon_raw).1, key_raw);
    }
}

/// The canonical formula by definition: literals sorted within each
/// clause, clauses sorted as literal lists, duplicates removed.
fn canonical_formula_by_definition(formula: &Formula) -> Formula {
    let mut clauses: Vec<Vec<Literal>> = formula
        .clauses()
        .iter()
        .map(|c| {
            let mut literals = c.literals().to_vec();
            literals.sort();
            literals
        })
        .collect();
    clauses.sort();
    clauses.dedup();
    let clauses = clauses
        .into_iter()
        .map(|literals| Clause::new(literals).expect("a sorted clause stays valid"))
        .collect();
    Formula::new(formula.n_vars(), clauses).expect("same variable space")
}

/// The SAT key by definition, hashed over a built canonical formula: the
/// exact half verbatim, the coarse half with variables renumbered in the
/// order they first occur and the variable count left out.
fn sat_key_by_definition(canonical: &Formula) -> CanonicalKey {
    const SOLVE_SAT_TAG: u8 = 4;
    let mut exact = Fnv1a::new();
    exact.byte(SOLVE_SAT_TAG);
    exact.u64(canonical.n_vars() as u64);
    exact.u64(canonical.len() as u64);
    for clause in canonical.clauses() {
        exact.u64(clause.len() as u64);
        for lit in clause.literals() {
            exact.u64(lit.var() as u64);
            exact.byte(u8::from(lit.is_negated()));
        }
    }
    let mut renumber: BTreeMap<usize, u64> = BTreeMap::new();
    let mut coarse = Fnv1a::new();
    coarse.byte(SOLVE_SAT_TAG);
    coarse.u64(canonical.len() as u64);
    for clause in canonical.clauses() {
        coarse.u64(clause.len() as u64);
        for lit in clause.literals() {
            let next = renumber.len() as u64;
            coarse.u64(*renumber.entry(lit.var()).or_insert(next));
            coarse.byte(u8::from(lit.is_negated()));
        }
    }
    CanonicalKey {
        key: coarse.finish(),
        exact: exact.finish(),
    }
}

/// Checks `canonical_key`, `canonicalize`, `admit` and `routing_hash` on
/// `kernel` against the definitions: build the canonical form, then hash
/// it.
fn assert_keyed_by_definition(kernel: &Kernel, what: &str) {
    let (form, key) = match kernel {
        Kernel::SolveSat { formula } => {
            let canonical = canonical_formula_by_definition(formula);
            let key = sat_key_by_definition(&canonical);
            (Kernel::SolveSat { formula: canonical }, key)
        }
        // The other families hash their canonical form as they always did.
        _ => {
            let form = canonicalize(kernel);
            let key = canonical_key(&form);
            (form, key)
        }
    };
    assert_eq!(canonicalize(kernel), form, "{what}: canonical form");
    assert_eq!(canonical_key(kernel), key, "{what}: key");
    assert_eq!(admit(kernel), (form, key), "{what}: admit");
    assert_eq!(
        routing_hash(kernel),
        key.routing_hash(),
        "{what}: routing hash"
    );
}

/// A random formula over `n_vars` variables with clauses of width 1–5,
/// some of them repeated verbatim and some repeated with their literals
/// reordered, in shuffled order. Only the variables in `used` occur.
fn random_formula(n_vars: usize, used: Range<usize>, rng: &mut StdRng) -> Formula {
    let mut clauses: Vec<Clause> = Vec::new();
    for _ in 0..rng.gen_range(1..40usize) {
        let width = rng.gen_range(1..=5usize.min(used.len()));
        let mut vars: Vec<usize> = Vec::new();
        while vars.len() < width {
            let var = rng.gen_range(used.clone());
            if !vars.contains(&var) {
                vars.push(var);
            }
        }
        let literals = vars
            .into_iter()
            .map(|v| {
                if rng.gen::<bool>() {
                    Literal::negative(v)
                } else {
                    Literal::positive(v)
                }
            })
            .collect();
        clauses.push(Clause::new(literals).expect("distinct variables"));
    }
    for _ in 0..rng.gen_range(0..4usize) {
        let mut literals = clauses[rng.gen_range(0..clauses.len())].literals().to_vec();
        if rng.gen::<bool>() {
            shuffle(&mut literals, rng);
        }
        clauses.push(Clause::new(literals).expect("a copy stays valid"));
    }
    shuffle(&mut clauses, rng);
    Formula::new(n_vars, clauses).expect("variables in range")
}

#[test]
fn keys_from_the_submitted_kernel_equal_keys_of_the_built_form() {
    let mut rng = rng_from_seed(0x6e1d_e7c5);
    for round in 0..300 {
        let used = rng.gen_range(1..24usize);
        // Up to 8 trailing unused variables.
        let n_vars = used + rng.gen_range(0..8usize);
        let mut formula = random_formula(n_vars, 0..used, &mut rng);
        if round % 10 == 0 {
            // A single clause.
            let first = formula.clauses()[0].clone();
            formula = Formula::new(n_vars, vec![first]).expect("one clause");
        }
        let kernel = Kernel::SolveSat { formula };
        assert_keyed_by_definition(&kernel, &format!("random formula {round}"));
    }
    // At the variable cap, with the literals at its top end.
    for round in 0..20 {
        let formula = random_formula(MAX_SAT_VARS, MAX_SAT_VARS - 12..MAX_SAT_VARS, &mut rng);
        let kernel = Kernel::SolveSat { formula };
        assert!(kernel.validate().is_ok());
        assert_keyed_by_definition(&kernel, &format!("formula at the cap {round}"));
    }
    // Every family's kernels and their scrambles.
    for round in 0..100 {
        let (raw, scrambled) = scrambled_pair(round % SCRAMBLED_FAMILIES, &mut rng);
        assert_keyed_by_definition(&raw, &format!("raw {round}"));
        assert_keyed_by_definition(&scrambled, &format!("scrambled {round}"));
    }
    for kernel in [
        Kernel::Factor { n: 77 },
        Kernel::DnaSimilarity {
            a: "ACGTTGCA".into(),
            b: "ACGATGCA".into(),
            k: 3,
        },
    ] {
        assert_keyed_by_definition(&kernel, "already canonical");
    }
}

/// Serves the kernels on a fresh single-worker runtime and returns the
/// completed `(backend, execution)` pairs in submission order.
fn serve(kernels: &[Kernel], seeds: &[u64]) -> Vec<(String, accel::kernel::KernelExecution)> {
    let config = RuntimeConfig {
        workers: 1,
        queue_capacity: 16,
        policy: DispatchPolicy::PreferSpecialized,
        seed: 0,
        ..RuntimeConfig::default()
    };
    let rt = Runtime::start(config).expect("runtime starts");
    let handles: Vec<_> = kernels
        .iter()
        .zip(seeds)
        .map(|(kernel, &seed)| {
            rt.submit_with(kernel.clone(), JobOptions::with_seed(seed))
                .expect("submission is valid")
        })
        .collect();
    handles
        .iter()
        .map(|h| match h.wait() {
            JobOutcome::Completed {
                backend, execution, ..
            } => (backend, execution),
            other => panic!("unexpected outcome {other:?}"),
        })
        .collect()
}

#[test]
fn serving_raw_canonical_and_scrambled_forms_is_byte_identical() {
    let mut rng = rng_from_seed(0xf00d_cafe);
    for round in 0..4u64 {
        // One kernel per family per round, each with a pinned job seed.
        let pairs: Vec<(Kernel, Kernel)> = (0..3).map(|f| scrambled_pair(f, &mut rng)).collect();
        let seeds: Vec<u64> = (0..3).map(|f| round * 31 + f).collect();
        let raw: Vec<Kernel> = pairs.iter().map(|(r, _)| r.clone()).collect();
        let canonical: Vec<Kernel> = raw.iter().map(canonicalize).collect();
        let scrambled: Vec<Kernel> = pairs.iter().map(|(_, s)| s.clone()).collect();
        // Three *independent* runtimes — no shared cache — so equality
        // comes from each runtime executing the canonical form, not from
        // one runtime serving stored bytes.
        let served_raw = serve(&raw, &seeds);
        let served_canonical = serve(&canonical, &seeds);
        let served_scrambled = serve(&scrambled, &seeds);
        assert_eq!(
            served_raw, served_canonical,
            "round {round}: run(canonicalize(k), seed) != run(k, seed)"
        );
        assert_eq!(
            served_raw, served_scrambled,
            "round {round}: a syntactic scramble changed served bytes"
        );
    }
}

/// A CPU backend whose executions block until the test opens the gate —
/// the deterministic way to hold a flight open while duplicates attach
/// and cancellations race.
struct GatedCpu {
    gate: Arc<AtomicBool>,
    inner: CpuBackend,
}

impl Accelerator for GatedCpu {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn reseed(&mut self, seed: u64) {
        self.inner.reseed(seed);
    }
    fn estimate(&self, kernel: &Kernel) -> Option<accel::kernel::CostEstimate> {
        self.inner.estimate(kernel)
    }
    fn execute(&mut self, kernel: &Kernel) -> Result<accel::kernel::KernelExecution, AccelError> {
        while !self.gate.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(1));
        }
        self.inner.execute(kernel)
    }
}

fn gated_runtime(seed: u64, gate: &Arc<AtomicBool>) -> Runtime {
    let factory_gate = Arc::clone(gate);
    let config = RuntimeConfig {
        workers: 1,
        queue_capacity: 32,
        policy: DispatchPolicy::CpuOnly,
        seed,
        ..RuntimeConfig::default()
    };
    Runtime::with_backend_factory(config, move |pool_seed| {
        Ok(vec![Box::new(GatedCpu {
            gate: Arc::clone(&factory_gate),
            inner: CpuBackend::new(pool_seed),
        }) as Box<dyn Accelerator>])
    })
    .expect("runtime starts")
}

#[test]
fn randomized_waiter_cancellations_never_leak_across_a_flight() {
    const WAITERS: usize = 4;
    const ROUNDS: usize = 10;
    let gate = Arc::new(AtomicBool::new(false));
    let rt = gated_runtime(11, &gate);

    let mut rng = rng_from_seed(0xca9c_e1ed);
    let mut total_cancelled = 0u64;
    let mut total_kept = 0u64;
    for round in 0..ROUNDS {
        // A fresh kernel per round keeps rounds on separate cache keys.
        let kernel = Kernel::Compare {
            x: (round as f64 + 1.0) / 16.0,
            y: 0.5,
        };
        let opts = JobOptions::with_seed(1000 + round as u64);
        gate.store(false, Ordering::SeqCst);
        // The flight registers at submission time, so the duplicates
        // attach deterministically whether or not the worker has picked
        // the lead up yet.
        let lead = rt.submit_with(kernel.clone(), opts).expect("submit lead");
        let waiters: Vec<_> = (0..WAITERS)
            .map(|_| rt.submit_with(kernel.clone(), opts).expect("submit dup"))
            .collect();
        // A random subset of waiters — forced non-empty and non-full —
        // cancels while the lead is still gated.
        let mut cancel = [false; WAITERS];
        for flag in &mut cancel {
            *flag = rng.gen_range(0..2u32) == 1;
        }
        cancel[rng.gen_range(0..WAITERS)] = true;
        cancel[rng.gen_range(0..WAITERS)] = false;
        for (waiter, &doomed) in waiters.iter().zip(&cancel) {
            if doomed {
                assert!(waiter.cancel(), "round {round}: cancel lost its race");
            }
        }
        gate.store(true, Ordering::SeqCst);

        let lead_outcome = lead.wait();
        let JobOutcome::Completed {
            execution: lead_execution,
            ..
        } = &lead_outcome
        else {
            panic!("round {round}: unexpected lead outcome {lead_outcome:?}");
        };
        for (i, (waiter, &doomed)) in waiters.iter().zip(&cancel).enumerate() {
            let outcome = waiter.wait();
            if doomed {
                total_cancelled += 1;
                assert_eq!(
                    outcome,
                    JobOutcome::Cancelled,
                    "round {round}: cancelled waiter {i} resolved otherwise"
                );
            } else {
                total_kept += 1;
                let JobOutcome::Completed { execution, .. } = &outcome else {
                    panic!("round {round}: surviving waiter {i} got {outcome:?}");
                };
                assert_eq!(
                    execution, lead_execution,
                    "round {round}: waiter {i} diverged from the lead's bytes"
                );
            }
        }
    }
    let stats = rt.shutdown();
    assert_eq!(stats.coalesced, (WAITERS * ROUNDS) as u64);
    assert_eq!(stats.cache_misses, ROUNDS as u64, "one lead per round");
    assert_eq!(stats.cancelled, total_cancelled);
    assert_eq!(stats.completed, ROUNDS as u64 + total_kept);
    assert_eq!(stats.settled(), ((1 + WAITERS) * ROUNDS) as u64);
    assert_eq!(
        stats.per_backend["cpu"].jobs, ROUNDS as u64,
        "each flight must execute exactly once"
    );
}

#[test]
fn cancelling_the_lead_still_serves_its_waiters() {
    let gate = Arc::new(AtomicBool::new(false));
    let rt = gated_runtime(23, &gate);
    let kernel = Kernel::Compare { x: 0.375, y: 0.875 };
    let opts = JobOptions::with_seed(7);
    let lead = rt.submit_with(kernel.clone(), opts).expect("submit lead");
    let waiter = rt.submit_with(kernel, opts).expect("submit dup");
    // The lead cancels while gated; its live waiter must still be served
    // a real execution rather than inheriting the cancellation.
    assert!(lead.cancel());
    gate.store(true, Ordering::SeqCst);
    assert_eq!(lead.wait(), JobOutcome::Cancelled);
    assert!(
        matches!(waiter.wait(), JobOutcome::Completed { .. }),
        "a lead's cancellation leaked to its waiter"
    );
    let stats = rt.shutdown();
    assert_eq!(stats.cancelled, 1);
    assert_eq!(stats.completed, 1);
}

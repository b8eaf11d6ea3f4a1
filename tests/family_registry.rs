//! Frozen-golden equivalence proof for the kernel families.
//!
//! The golden tables below were generated against the original code (the
//! closed `Kernel` enum with per-crate match arms) and then frozen; no
//! refactor of `accel::family` since has changed a row. Every observable
//! a refactor could perturb is pinned for all five legacy families:
//! `describe`/`class`/`validate`, the two-level canonical key and routing
//! hash, the wire encoding of both the raw and the canonicalized kernel,
//! per-backend `supports`/`estimate` bits, and the planner's ranked
//! dispatch order under every policy. If any of these assertions fails,
//! the families' behavior has drifted — that is a serving-compatibility
//! break, not a test to "fix" by regenerating.
//!
//! The `family` rows pin the `accel::family::FAMILIES` row each kernel
//! resolves to (tag and name), so a renamed or renumbered shipped family
//! fails here by name.
//!
//! The coloring and QUBO rows were generated the same way against the
//! commit that still kept their cost model behind per-family backend
//! profiles, before it moved into the backends' own `estimate` arms.
//! The QUBO `estimates` row and its `min-latency` and `deadline-aware`
//! routes were regenerated once, when the memcomputing estimate became
//! the served schedule's whole step budget. The colouring `estimates`
//! row was regenerated once, when the oscillator estimate became the
//! phase-reduced model's fixed settling schedule in oscillator periods.
//! The `wire` and `canon_wire` rows were regenerated once for protocol
//! 8, when every frame became its family's one-byte tag then the body.
//!
//! To regenerate after an *intentional* behavior change:
//!
//! ```text
//! cargo test --test family_registry regenerate -- --ignored --nocapture
//! ```

use accel::backends::standard_pool;
use accel::family::{canonical_key, canonicalize, family_of, ColoringSpec, FamilyKernel, QuboSpec};
use accel::host::{CorrectionTable, DispatchPolicy, Planner};
use accel::kernel::Kernel;
use admission::routing_hash;
use mem::cnf::{Clause, Formula, Literal};
use mem::generators::planted_3sat;
use wire::encode_kernel;

/// Fixed pool seed: estimates and plans must not depend on it (no legacy
/// estimator is stochastic), but we pin it anyway so the corpus is fully
/// deterministic.
const POOL_SEED: u64 = 7;

const POLICIES: [(&str, DispatchPolicy); 5] = [
    ("prefer-specialized", DispatchPolicy::PreferSpecialized),
    ("cpu-only", DispatchPolicy::CpuOnly),
    ("min-latency", DispatchPolicy::MinPredictedLatency),
    ("min-energy", DispatchPolicy::MinPredictedEnergy),
    ("deadline-aware", DispatchPolicy::DeadlineAware),
];

fn lit(dimacs: i64) -> Literal {
    Literal::from_dimacs(dimacs).expect("valid literal")
}

fn clause(lits: &[i64]) -> Clause {
    Clause::new(lits.iter().map(|&l| lit(l)).collect()).expect("valid clause")
}

/// A formula with unsorted literals, unsorted clauses, and a duplicate
/// clause — exercises every normalization step of SAT canonicalization.
fn scrambled_formula() -> Formula {
    Formula::new(
        5,
        vec![
            clause(&[4, -2, 1]),
            clause(&[-5, 3]),
            clause(&[1, -2, 4]),
            clause(&[2, -1]),
        ],
    )
    .expect("valid formula")
}

/// The frozen corpus: one row per observable behavior worth pinning,
/// including canonicalization-sensitive variants (unsorted marked sets,
/// scrambled clauses, negative-zero compares) and every invalid-kernel
/// arm. Values are arbitrary but frozen: changing them invalidates the
/// golden tables.
fn corpus() -> Vec<(&'static str, Kernel)> {
    vec![
        ("factor_77", Kernel::Factor { n: 77 }),
        ("factor_15", Kernel::Factor { n: 15 }),
        ("factor_too_small", Kernel::Factor { n: 3 }),
        (
            "search_unsorted_dups",
            Kernel::Search {
                n_qubits: 4,
                marked: vec![9, 3, 9, 1],
            },
        ),
        (
            "search_single",
            Kernel::Search {
                n_qubits: 3,
                marked: vec![5],
            },
        ),
        (
            "search_empty_space",
            Kernel::Search {
                n_qubits: 0,
                marked: vec![],
            },
        ),
        (
            "search_marked_oob",
            Kernel::Search {
                n_qubits: 2,
                marked: vec![4],
            },
        ),
        (
            "dna_mixed",
            Kernel::DnaSimilarity {
                a: "ACGTACGTTGCA".into(),
                b: "TGCAACGTACGT".into(),
                k: 3,
            },
        ),
        (
            "dna_zero_kmer",
            Kernel::DnaSimilarity {
                a: "ACGT".into(),
                b: "ACGT".into(),
                k: 0,
            },
        ),
        (
            "dna_kmer_too_long",
            Kernel::DnaSimilarity {
                a: "ACGT".into(),
                b: "ACG".into(),
                k: 4,
            },
        ),
        (
            "sat_planted",
            Kernel::SolveSat {
                formula: planted_3sat(8, 3.5, 11).expect("planted instance").formula,
            },
        ),
        (
            "sat_scrambled",
            Kernel::SolveSat {
                formula: scrambled_formula(),
            },
        ),
        ("compare_quarters", Kernel::Compare { x: 0.25, y: 0.75 }),
        ("compare_neg_zero", Kernel::Compare { x: -0.0, y: 0.5 }),
        (
            "compare_nan",
            Kernel::Compare {
                x: f64::NAN,
                y: 0.5,
            },
        ),
        ("compare_oob", Kernel::Compare { x: 0.1, y: 1.5 }),
        (
            "coloring_unsorted_dups",
            Kernel::Family(FamilyKernel::Coloring(ColoringSpec {
                n_vertices: 6,
                n_colors: 3,
                edges: vec![(3, 1), (0, 2), (1, 3), (4, 5), (2, 5)],
            })),
        ),
        (
            "qubo_like_terms",
            Kernel::Family(FamilyKernel::Qubo(QuboSpec {
                n_vars: 5,
                linear: vec![(1, 0.5), (0, 1.0), (1, -0.25), (4, -2.0)],
                quadratic: vec![(2, 0, 1.0), (0, 2, 0.5), (1, 3, -1.5), (3, 4, 0.0)],
            })),
        ),
    ]
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn validate_text(kernel: &Kernel) -> String {
    match kernel.validate() {
        Ok(()) => "ok".to_string(),
        Err(e) => format!("err: {e}"),
    }
}

fn wire_hex(kernel: &Kernel) -> String {
    match encode_kernel(kernel) {
        Ok(bytes) => hex(&bytes),
        Err(e) => format!("err: {e}"),
    }
}

/// `supports` + corrected-estimate bit patterns for every backend in the
/// standard pool — the complete input surface of the planner.
fn estimate_text(kernel: &Kernel) -> String {
    let pool = standard_pool(POOL_SEED).expect("standard pool");
    pool.iter()
        .map(|b| {
            if !b.supports(kernel) {
                return format!("{}:unsupported", b.name());
            }
            match b.estimate(kernel) {
                Some(e) => format!(
                    "{}:ds={:016x},ej={:016x}",
                    b.name(),
                    e.device_seconds.to_bits(),
                    e.energy_joules.to_bits()
                ),
                None => format!("{}:no-estimate", b.name()),
            }
        })
        .collect::<Vec<_>>()
        .join(" ")
}

/// The planner's ranked backend order under one policy (pure function of
/// the estimate surface above, pinned separately for direct readability).
fn plan_text(kernel: &Kernel, policy: DispatchPolicy) -> String {
    let pool = standard_pool(POOL_SEED).expect("standard pool");
    let planner = Planner::frozen(CorrectionTable::new());
    match planner.plan(&pool, kernel, policy, None) {
        Ok(plan) => plan
            .ranked
            .iter()
            .map(|&(i, _)| pool[i].name())
            .collect::<Vec<_>>()
            .join(">"),
        Err(e) => format!("err: {e}"),
    }
}

/// One golden row: everything observable about a corpus kernel.
fn observe(kernel: &Kernel) -> Vec<(&'static str, String)> {
    let valid = kernel.validate().is_ok();
    let family = family_of(kernel);
    let mut row = vec![
        ("describe", kernel.describe()),
        ("class", format!("{:?}", kernel.class())),
        ("validate", validate_text(kernel)),
        ("wire", wire_hex(kernel)),
        ("family", format!("{} {}", family.tag, family.name)),
    ];
    if valid {
        let canonical = canonicalize(kernel);
        let key = canonical_key(&canonical);
        row.push(("canon_coarse", format!("{:016x}", key.key)));
        row.push(("canon_exact", format!("{:016x}", key.exact)));
        row.push(("routing", format!("{:016x}", routing_hash(kernel))));
        row.push(("canon_wire", wire_hex(&canonical)));
        row.push(("estimates", estimate_text(kernel)));
        for (policy_name, policy) in POLICIES {
            row.push((policy_name, plan_text(kernel, policy)));
        }
    }
    row
}

// ---------------------------------------------------------------------
// Golden tables, generated against the pre-registry enum code. Each row
// is (kernel, field, value). Regenerate with the ignored test below ONLY
// for an intentional, wire-compatible behavior change.
// ---------------------------------------------------------------------

const GOLDENS: &[(&str, &str, &str)] = &[
    ("factor_77", "describe", "factor(77)"),
    ("factor_77", "class", "Quantum"),
    ("factor_77", "validate", "ok"),
    ("factor_77", "wire", "01000000000000004d"),
    ("factor_77", "family", "1 factor"),
    ("factor_77", "canon_coarse", "529a71dc8ff5a8eb"),
    ("factor_77", "canon_exact", "529a71dc8ff5a8eb"),
    ("factor_77", "routing", "5be7a50aee5a4f15"),
    ("factor_77", "canon_wire", "01000000000000004d"),
    ("factor_77", "estimates", "quantum:ds=3f2cc5de710f0be2,ej=3f767a95c853c149 oscillator:unsupported memcomputing:unsupported cpu:ds=3e3723996cccc750,ej=3e3723996cccc750"),
    ("factor_77", "prefer-specialized", "quantum>cpu"),
    ("factor_77", "cpu-only", "cpu"),
    ("factor_77", "min-latency", "cpu>quantum"),
    ("factor_77", "min-energy", "cpu>quantum"),
    ("factor_77", "deadline-aware", "cpu>quantum"),
    ("factor_15", "describe", "factor(15)"),
    ("factor_15", "class", "Quantum"),
    ("factor_15", "validate", "ok"),
    ("factor_15", "wire", "01000000000000000f"),
    ("factor_15", "family", "1 factor"),
    ("factor_15", "canon_coarse", "529a33dc8ff53f91"),
    ("factor_15", "canon_exact", "529a33dc8ff53f91"),
    ("factor_15", "routing", "c7f6ca66f90c2951"),
    ("factor_15", "canon_wire", "01000000000000000f"),
    ("factor_15", "estimates", "quantum:ds=3f05798ee2308c3a,ej=3f50c6f7a0b5ed8d oscillator:unsupported memcomputing:unsupported cpu:ds=3e293969d9c0a586,ej=3e293969d9c0a586"),
    ("factor_15", "prefer-specialized", "quantum>cpu"),
    ("factor_15", "cpu-only", "cpu"),
    ("factor_15", "min-latency", "cpu>quantum"),
    ("factor_15", "min-energy", "cpu>quantum"),
    ("factor_15", "deadline-aware", "cpu>quantum"),
    ("factor_too_small", "describe", "factor(3)"),
    ("factor_too_small", "class", "Quantum"),
    ("factor_too_small", "validate", "err: factor(3): composites below 4 have no nontrivial factors"),
    ("factor_too_small", "wire", "010000000000000003"),
    ("factor_too_small", "family", "1 factor"),
    ("search_unsorted_dups", "describe", "search(2^4, 4 marked)"),
    ("search_unsorted_dups", "class", "Quantum"),
    ("search_unsorted_dups", "validate", "ok"),
    ("search_unsorted_dups", "wire", "0200000004000000040000000000000009000000000000000300000000000000090000000000000001"),
    ("search_unsorted_dups", "family", "2 search"),
    ("search_unsorted_dups", "canon_coarse", "3678c93179214ef1"),
    ("search_unsorted_dups", "canon_exact", "3678c93179214ef1"),
    ("search_unsorted_dups", "routing", "d0d45053f73ea425"),
    ("search_unsorted_dups", "canon_wire", "020000000400000003000000000000000100000000000000030000000000000009"),
    ("search_unsorted_dups", "estimates", "quantum:ds=3e9ad7f29abcaf49,ej=3ee4f8b588e368f1 oscillator:unsupported memcomputing:unsupported cpu:ds=3e2d34add7753997,ej=3e2d34add7753997"),
    ("search_unsorted_dups", "prefer-specialized", "quantum>cpu"),
    ("search_unsorted_dups", "cpu-only", "cpu"),
    ("search_unsorted_dups", "min-latency", "cpu>quantum"),
    ("search_unsorted_dups", "min-energy", "cpu>quantum"),
    ("search_unsorted_dups", "deadline-aware", "cpu>quantum"),
    ("search_single", "describe", "search(2^3, 1 marked)"),
    ("search_single", "class", "Quantum"),
    ("search_single", "validate", "ok"),
    ("search_single", "wire", "0200000003000000010000000000000005"),
    ("search_single", "family", "2 search"),
    ("search_single", "canon_coarse", "ace7e6cf6a345160"),
    ("search_single", "canon_exact", "ace7e6cf6a345160"),
    ("search_single", "routing", "c858e0058dbd6735"),
    ("search_single", "canon_wire", "0200000003000000010000000000000005"),
    ("search_single", "estimates", "quantum:ds=3ea5798ee2308c3a,ej=3ef0c6f7a0b5ed8d oscillator:unsupported memcomputing:unsupported cpu:ds=3e3353cd652bb168,ej=3e3353cd652bb168"),
    ("search_single", "prefer-specialized", "quantum>cpu"),
    ("search_single", "cpu-only", "cpu"),
    ("search_single", "min-latency", "cpu>quantum"),
    ("search_single", "min-energy", "cpu>quantum"),
    ("search_single", "deadline-aware", "cpu>quantum"),
    ("search_empty_space", "describe", "search(2^0, 0 marked)"),
    ("search_empty_space", "class", "Quantum"),
    ("search_empty_space", "validate", "err: search over 0 qubits: the search space is empty"),
    ("search_empty_space", "wire", "020000000000000000"),
    ("search_empty_space", "family", "2 search"),
    ("search_marked_oob", "describe", "search(2^2, 1 marked)"),
    ("search_marked_oob", "class", "Quantum"),
    ("search_marked_oob", "validate", "err: marked item 4 outside search space 0..2^2"),
    ("search_marked_oob", "wire", "0200000002000000010000000000000004"),
    ("search_marked_oob", "family", "2 search"),
    ("dna_mixed", "describe", "dna_similarity(|a|=12, |b|=12, k=3)"),
    ("dna_mixed", "class", "Quantum"),
    ("dna_mixed", "validate", "ok"),
    ("dna_mixed", "wire", "030000000c4143475441434754544743410000000c5447434141434754414347540000000000000003"),
    ("dna_mixed", "family", "3 dna-similarity"),
    ("dna_mixed", "canon_coarse", "f8d573df3ad015a3"),
    ("dna_mixed", "canon_exact", "f8d573df3ad015a3"),
    ("dna_mixed", "routing", "040ed11e7c774add"),
    ("dna_mixed", "canon_wire", "030000000c4143475441434754544743410000000c5447434141434754414347540000000000000003"),
    ("dna_mixed", "estimates", "quantum:ds=3f40b630a91537a0,ej=3f8a1cac083126ea oscillator:unsupported memcomputing:unsupported cpu:ds=3e8cfdb417c18a1b,ej=3e8cfdb417c18a1b"),
    ("dna_mixed", "prefer-specialized", "quantum>cpu"),
    ("dna_mixed", "cpu-only", "cpu"),
    ("dna_mixed", "min-latency", "cpu>quantum"),
    ("dna_mixed", "min-energy", "cpu>quantum"),
    ("dna_mixed", "deadline-aware", "cpu>quantum"),
    ("dna_zero_kmer", "describe", "dna_similarity(|a|=4, |b|=4, k=0)"),
    ("dna_zero_kmer", "class", "Quantum"),
    ("dna_zero_kmer", "validate", "err: dna similarity with k = 0"),
    ("dna_zero_kmer", "wire", "03000000044143475400000004414347540000000000000000"),
    ("dna_zero_kmer", "family", "3 dna-similarity"),
    ("dna_kmer_too_long", "describe", "dna_similarity(|a|=4, |b|=3, k=4)"),
    ("dna_kmer_too_long", "class", "Quantum"),
    ("dna_kmer_too_long", "validate", "err: dna similarity k-mer length 4 exceeds shorter sequence length 3"),
    ("dna_kmer_too_long", "wire", "030000000441434754000000034143470000000000000004"),
    ("dna_kmer_too_long", "family", "3 dna-similarity"),
    ("sat_planted", "describe", "solve_sat(8 vars, 28 clauses)"),
    ("sat_planted", "class", "Optimization"),
    ("sat_planted", "validate", "ok"),
    ("sat_planted", "wire", "04000000080000001c00000003fffffffffffffff9fffffffffffffffcffffffffffffffff0000000300000000000000010000000000000007fffffffffffffffd0000000300000000000000010000000000000005000000000000000800000003fffffffffffffffc0000000000000001fffffffffffffffd000000030000000000000005fffffffffffffff9000000000000000300000003fffffffffffffffffffffffffffffffbfffffffffffffffd00000003fffffffffffffffd00000000000000060000000000000004000000030000000000000008fffffffffffffffb000000000000000700000003fffffffffffffffc000000000000000500000000000000030000000300000000000000030000000000000007000000000000000600000003fffffffffffffffefffffffffffffffcfffffffffffffff80000000300000000000000040000000000000005fffffffffffffffe000000030000000000000004fffffffffffffffafffffffffffffffb000000030000000000000006000000000000000800000000000000020000000300000000000000010000000000000008fffffffffffffffa00000003fffffffffffffffdfffffffffffffff8fffffffffffffffc00000003fffffffffffffff8fffffffffffffffffffffffffffffffb000000030000000000000001fffffffffffffff800000000000000070000000300000000000000010000000000000002fffffffffffffffb00000003fffffffffffffff9fffffffffffffffcfffffffffffffff8000000030000000000000006fffffffffffffffeffffffffffffffff000000030000000000000001fffffffffffffffa000000000000000300000003fffffffffffffff8fffffffffffffffe000000000000000600000003fffffffffffffff8fffffffffffffffffffffffffffffffd000000030000000000000008fffffffffffffff9ffffffffffffffff00000003fffffffffffffffafffffffffffffff9fffffffffffffffe00000003ffffffffffffffff0000000000000003000000000000000500000003fffffffffffffffdfffffffffffffffbfffffffffffffff8"),
    ("sat_planted", "family", "4 solve-sat"),
    ("sat_planted", "canon_coarse", "53494a553875189e"),
    ("sat_planted", "canon_exact", "10a23d57c8457003"),
    ("sat_planted", "routing", "60395e93dbc86dfd"),
    ("sat_planted", "canon_wire", "04000000080000001c0000000300000000000000010000000000000002fffffffffffffffb0000000300000000000000010000000000000003fffffffffffffffa000000030000000000000001fffffffffffffffdfffffffffffffffc000000030000000000000001fffffffffffffffd000000000000000700000003000000000000000100000000000000050000000000000008000000030000000000000001fffffffffffffffa00000000000000080000000300000000000000010000000000000007fffffffffffffff800000003fffffffffffffffffffffffffffffffe000000000000000600000003ffffffffffffffff0000000000000003000000000000000500000003fffffffffffffffffffffffffffffffdfffffffffffffffb00000003fffffffffffffffffffffffffffffffdfffffffffffffff800000003fffffffffffffffffffffffffffffffcfffffffffffffff900000003fffffffffffffffffffffffffffffffbfffffffffffffff800000003fffffffffffffffffffffffffffffff900000000000000080000000300000000000000020000000000000006000000000000000800000003fffffffffffffffe0000000000000004000000000000000500000003fffffffffffffffefffffffffffffffcfffffffffffffff800000003fffffffffffffffe0000000000000006fffffffffffffff800000003fffffffffffffffefffffffffffffffafffffffffffffff9000000030000000000000003fffffffffffffffc00000000000000050000000300000000000000030000000000000005fffffffffffffff90000000300000000000000030000000000000006000000000000000700000003fffffffffffffffd0000000000000004000000000000000600000003fffffffffffffffdfffffffffffffffcfffffffffffffff800000003fffffffffffffffdfffffffffffffffbfffffffffffffff8000000030000000000000004fffffffffffffffbfffffffffffffffa00000003fffffffffffffffcfffffffffffffff9fffffffffffffff800000003fffffffffffffffb00000000000000070000000000000008"),
    ("sat_planted", "estimates", "quantum:unsupported oscillator:unsupported memcomputing:ds=3e8353cd652bb168,ej=3e18bd2fdda89129 cpu:ds=3e7cc673433a523a,ej=3e7cc673433a523a"),
    ("sat_planted", "prefer-specialized", "memcomputing>cpu"),
    ("sat_planted", "cpu-only", "cpu"),
    ("sat_planted", "min-latency", "cpu>memcomputing"),
    ("sat_planted", "min-energy", "memcomputing>cpu"),
    ("sat_planted", "deadline-aware", "cpu>memcomputing"),
    ("sat_scrambled", "describe", "solve_sat(5 vars, 4 clauses)"),
    ("sat_scrambled", "class", "Optimization"),
    ("sat_scrambled", "validate", "ok"),
    ("sat_scrambled", "wire", "040000000500000004000000030000000000000004fffffffffffffffe000000000000000100000002fffffffffffffffb0000000000000003000000030000000000000001fffffffffffffffe0000000000000004000000020000000000000002ffffffffffffffff"),
    ("sat_scrambled", "family", "4 solve-sat"),
    ("sat_scrambled", "canon_coarse", "2d54f6244358c38b"),
    ("sat_scrambled", "canon_exact", "b39e67eb9a6bced0"),
    ("sat_scrambled", "routing", "f4ea5e0120965b8d"),
    ("sat_scrambled", "canon_wire", "040000000500000003000000030000000000000001fffffffffffffffe000000000000000400000002ffffffffffffffff0000000000000002000000020000000000000003fffffffffffffffb"),
    ("sat_scrambled", "estimates", "quantum:unsupported oscillator:unsupported memcomputing:ds=3e6353cd652bb168,ej=3df8bd2fdda89129 cpu:ds=3e4bcc305134218a,ej=3e4bcc305134218a"),
    ("sat_scrambled", "prefer-specialized", "memcomputing>cpu"),
    ("sat_scrambled", "cpu-only", "cpu"),
    ("sat_scrambled", "min-latency", "cpu>memcomputing"),
    ("sat_scrambled", "min-energy", "memcomputing>cpu"),
    ("sat_scrambled", "deadline-aware", "cpu>memcomputing"),
    ("compare_quarters", "describe", "compare(0.250, 0.750)"),
    ("compare_quarters", "class", "Analog"),
    ("compare_quarters", "validate", "ok"),
    ("compare_quarters", "wire", "053fd00000000000003fe8000000000000"),
    ("compare_quarters", "family", "5 compare"),
    ("compare_quarters", "canon_coarse", "a9516d064a078a38"),
    ("compare_quarters", "canon_exact", "77b17fd813e5cc48"),
    ("compare_quarters", "routing", "273f3f40ba4953e2"),
    ("compare_quarters", "canon_wire", "053fd00000000000003fe8000000000000"),
    ("compare_quarters", "estimates", "quantum:unsupported oscillator:ds=3ebad7f29abcaf48,ej=3e19ba83b3532652 memcomputing:unsupported cpu:ds=3e29c511dc3a41e0,ej=3e29c511dc3a41e0"),
    ("compare_quarters", "prefer-specialized", "oscillator>cpu"),
    ("compare_quarters", "cpu-only", "cpu"),
    ("compare_quarters", "min-latency", "cpu>oscillator"),
    ("compare_quarters", "min-energy", "oscillator>cpu"),
    ("compare_quarters", "deadline-aware", "cpu>oscillator"),
    ("compare_neg_zero", "describe", "compare(-0.000, 0.500)"),
    ("compare_neg_zero", "class", "Analog"),
    ("compare_neg_zero", "validate", "ok"),
    ("compare_neg_zero", "wire", "0580000000000000003fe0000000000000"),
    ("compare_neg_zero", "family", "5 compare"),
    ("compare_neg_zero", "canon_coarse", "0911d125d8fe7cb8"),
    ("compare_neg_zero", "canon_exact", "4f1aa366e149989f"),
    ("compare_neg_zero", "routing", "6f3a3d72cb5ed520"),
    ("compare_neg_zero", "canon_wire", "0500000000000000003fe0000000000000"),
    ("compare_neg_zero", "estimates", "quantum:unsupported oscillator:ds=3ebad7f29abcaf48,ej=3e19ba83b3532652 memcomputing:unsupported cpu:ds=3e29c511dc3a41e0,ej=3e29c511dc3a41e0"),
    ("compare_neg_zero", "prefer-specialized", "oscillator>cpu"),
    ("compare_neg_zero", "cpu-only", "cpu"),
    ("compare_neg_zero", "min-latency", "cpu>oscillator"),
    ("compare_neg_zero", "min-energy", "oscillator>cpu"),
    ("compare_neg_zero", "deadline-aware", "cpu>oscillator"),
    ("compare_nan", "describe", "compare(NaN, 0.500)"),
    ("compare_nan", "class", "Analog"),
    ("compare_nan", "validate", "err: compare operands (NaN, 0.5) must be finite"),
    ("compare_nan", "wire", "057ff80000000000003fe0000000000000"),
    ("compare_nan", "family", "5 compare"),
    ("compare_oob", "describe", "compare(0.100, 1.500)"),
    ("compare_oob", "class", "Analog"),
    ("compare_oob", "validate", "err: compare operands (0.1, 1.5) must lie in [0, 1]"),
    ("compare_oob", "wire", "053fb999999999999a3ff8000000000000"),
    ("compare_oob", "family", "5 compare"),
    ("coloring_unsorted_dups", "describe", "coloring(6 vertices, 5 edges, 3 colors)"),
    ("coloring_unsorted_dups", "class", "Analog"),
    ("coloring_unsorted_dups", "validate", "ok"),
    ("coloring_unsorted_dups", "wire", "0600000000000000060000000000000003000000050000000000000003000000000000000100000000000000000000000000000002000000000000000100000000000000030000000000000004000000000000000500000000000000020000000000000005"),
    ("coloring_unsorted_dups", "family", "6 coloring"),
    ("coloring_unsorted_dups", "canon_coarse", "bb6cba73efef904c"),
    ("coloring_unsorted_dups", "canon_exact", "bb6cba73efef904c"),
    ("coloring_unsorted_dups", "routing", "3db616aedb54a36d"),
    ("coloring_unsorted_dups", "canon_wire", "06000000000000000600000000000000030000000400000000000000000000000000000002000000000000000100000000000000030000000000000002000000000000000500000000000000040000000000000005"),
    ("coloring_unsorted_dups", "estimates", "quantum:unsupported oscillator:ds=3eefe5cb2a4a7186,ej=3e76edf6e36f4462 memcomputing:unsupported cpu:ds=3e512e0be826d695,ej=3e512e0be826d695"),
    ("coloring_unsorted_dups", "prefer-specialized", "oscillator>cpu"),
    ("coloring_unsorted_dups", "cpu-only", "cpu"),
    ("coloring_unsorted_dups", "min-latency", "cpu>oscillator"),
    ("coloring_unsorted_dups", "min-energy", "cpu>oscillator"),
    ("coloring_unsorted_dups", "deadline-aware", "cpu>oscillator"),
    ("qubo_like_terms", "describe", "qubo(5 vars, 8 terms)"),
    ("qubo_like_terms", "class", "Optimization"),
    ("qubo_like_terms", "validate", "ok"),
    ("qubo_like_terms", "wire", "0700000000000000050000000400000000000000013fe000000000000000000000000000003ff00000000000000000000000000001bfd00000000000000000000000000004c00000000000000000000004000000000000000200000000000000003ff0000000000000000000000000000000000000000000023fe000000000000000000000000000010000000000000003bff8000000000000000000000000000300000000000000040000000000000000"),
    ("qubo_like_terms", "family", "7 qubo"),
    ("qubo_like_terms", "canon_coarse", "5c67aa8e6d2cea75"),
    ("qubo_like_terms", "canon_exact", "7b2452c005f03c7d"),
    ("qubo_like_terms", "routing", "d633005d32e348cb"),
    ("qubo_like_terms", "canon_wire", "0700000000000000050000000300000000000000003ff000000000000000000000000000013fd00000000000000000000000000004c00000000000000000000002000000000000000000000000000000023ff800000000000000000000000000010000000000000003bff8000000000000"),
    ("qubo_like_terms", "estimates", "quantum:unsupported oscillator:unsupported memcomputing:ds=3e9ad7f29abcaf49,ej=3e312e0be826d695 cpu:ds=3e7172c417c771ef,ej=3e7172c417c771ef"),
    ("qubo_like_terms", "prefer-specialized", "memcomputing>cpu"),
    ("qubo_like_terms", "cpu-only", "cpu"),
    ("qubo_like_terms", "min-latency", "cpu>memcomputing"),
    ("qubo_like_terms", "min-energy", "memcomputing>cpu"),
    ("qubo_like_terms", "deadline-aware", "cpu>memcomputing"),
];

#[test]
fn legacy_families_match_pre_registry_goldens() {
    if GOLDENS.len() == 1 && GOLDENS[0].0 == "placeholder" {
        panic!("golden table not yet generated — run the regenerate test");
    }
    let mut checked = 0usize;
    for (name, kernel) in corpus() {
        for (field, value) in observe(&kernel) {
            let golden = GOLDENS
                .iter()
                .find(|(n, f, _)| *n == name && *f == field)
                .unwrap_or_else(|| panic!("missing golden for {name}/{field}"));
            assert_eq!(
                value, golden.2,
                "{name}/{field} drifted from pre-registry behavior"
            );
            checked += 1;
        }
    }
    assert_eq!(
        checked,
        GOLDENS.len(),
        "golden table has rows the corpus no longer produces"
    );
}

/// Prints the full golden table. Run after an *intentional* behavior
/// change, then paste the output over the constant above.
#[test]
#[ignore = "generator, not a check"]
fn regenerate() {
    println!("const GOLDENS: &[(&str, &str, &str)] = &[");
    for (name, kernel) in corpus() {
        for (field, value) in observe(&kernel) {
            println!(
                "    (\"{name}\", \"{field}\", \"{}\"),",
                value.escape_debug()
            );
        }
    }
    println!("];");
}

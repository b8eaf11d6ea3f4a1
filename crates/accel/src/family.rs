//! Kernel families: what is backend-independent about each [`Kernel`].
//!
//! The paper's premise is a heterogeneous future — new workloads and new
//! compute substrates keep arriving, and the host must absorb both. The
//! two axes of growth have one home each:
//!
//! * **A family** (this module) is one [`Kernel`] variant and one
//!   [`KernelResult`] variant. Its identity — stable tag and name — is
//!   one row of [`FAMILIES`]. What it does is one arm in each exhaustive
//!   `match` here: description and
//!   **validation** (behind [`Kernel::describe`] and [`Kernel::validate`]),
//!   **canonical form + two-level canonical key** ([`canonicalize`],
//!   [`canonical_key`]), and the **body codec** of its wire frames,
//!   written with the shared [`crate::codec`] reader/writer
//!   ([`encode_body`] / [`decode_body`] and the result-side pair).
//! * **A backend** ([`crate::accelerator::Accelerator`]) owns what is
//!   *substrate-specific*: the a-priori cost model `estimate`, whose
//!   `None` is the backend's one answer to "do you run this kernel?", and
//!   `execute`. Backends hold calibrated state (oscillator distance
//!   tables, DMM solver parameters, gate timing, seed streams), so the
//!   (family × backend) cell lives in the backend's `match`, one arm per
//!   family it serves. A new substrate is one new `Accelerator` impl.
//! * **The host** ([`crate::host::HostRuntime::dispatch_planned`]) owns
//!   the one dispatch walk: plan, retry, fail over, quarantine, race.
//!
//! The five legacy families (factor, search, DNA similarity, SAT, analog
//! compare) have canonical keys **byte-identical** to the original enum
//! code — `tests/family_registry.rs` pins every observable, including
//! each backend's `estimate` bits for all seven families. A family's
//! [`FamilyInfo::tag`] is its one number: the first byte of its wire
//! frames (the body codec's bytes follow inline) and the first byte its
//! canonical key hashes.
//!
//! # The two later families
//!
//! * **Phase-dynamics vertex coloring** ([`ColoringSpec`], tag 6) — a
//!   graph is loaded onto the phase-reduced model of the coupled-oscillator
//!   array (`osc::coloring::color_graph`); repulsive coupling pushes
//!   adjacent vertices apart, a weak `k`-th harmonic injection locks the
//!   phases to `k` sectors, and the sectors read out as color classes
//!   (Bonnin et al., *Coupled oscillator networks for von Neumann and
//!   non von Neumann computing*). The start is drawn from the job seed,
//!   so a job replays exactly. The CPU falls back to greedy coloring.
//! * **Ising/QUBO energy minimization** ([`QuboSpec`], tag 7) — minimize
//!   `x^T Q x + c^T x` over binary `x` on the digital-memcomputing
//!   machine (`mem::qubo::Qubo::minimize_dmm`), with a seeded
//!   greedy-descent CPU fallback.
//!
//! # Adding a family
//!
//! 1. Add a [`FamilyKernel`] variant and a [`FamilyResult`] variant.
//! 2. Add a [`FamilyInfo`] constant (with the next tag) and append it to
//!    [`FAMILIES`] and to the shipped-table literal in
//!    `family_table_matches_the_frozen_table`.
//! 3. Build: the compiler lists every `match` to extend — the ones here
//!    and an `estimate`/`execute` arm in each backend that runs the family
//!    (at least [`crate::accelerator::CpuBackend`], the fallback for every
//!    kernel).
//!    Add the new constant's arm to [`decode_body`] and
//!    [`decode_result_body`], which match on the table row; the wire
//!    round-trip and hostile-frame tests fail until it and their samples
//!    exist.
//!
//! No other crate needs a new match: admission, the planner, the wire
//! codec, the router, and the server all go through these functions or
//! the `Accelerator` trait — no crate above `accel` names a `Kernel` or
//! `KernelResult` variant outside its tests.

// Dispatch and byte parsing face hostile input: panic hygiene (DESIGN.md §8).
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use crate::codec::{
    ByteReader, ByteWriter, CodecError, MAX_CLAUSES, MAX_CLAUSE_WIDTH, MAX_SEQUENCE_LEN,
};
use crate::kernel::{InvalidKernel, Kernel, KernelResult};
use crate::AccelError;
use mem::cnf::{Clause, Formula, Literal};
use mem::qubo::Qubo;
use numerics::hash::Fnv1a as Fnv;
use std::collections::BTreeMap;

/// Grid resolution for quantizing the analog compare operands inside the
/// coarse key: operands are snapped to a `2^-20` lattice, far finer than
/// the oscillator substrate's own noise floor.
const COMPARE_QUANTUM: f64 = (1u64 << 20) as f64;

/// Grid resolution for quantizing QUBO coefficients inside the coarse
/// key: a `2^-12` lattice buckets near-identical objective surfaces while
/// the exact half still separates them before any bytes are served.
const QUBO_QUANTUM: f64 = (1u64 << 12) as f64;

/// Serving cap on a `Factor`'s `n`: the CPU backend's trial division
/// probes odd divisors up to `√n`, so at the cap a prime costs it about
/// 5 × 10⁵ divisions, where a 9-byte frame could otherwise ask for 2³¹.
pub const MAX_FACTOR_N: u64 = 1 << 40;
/// Serving cap on SAT variables: every SAT backend sizes its state by the
/// variable count, which a 41-byte frame could otherwise put at 2³² − 1.
pub const MAX_SAT_VARS: usize = 1 << 20;
/// Serving cap on coloring vertices (the oscillator array size the cost
/// model is calibrated for; also the wire decoder's allocation bound).
pub const MAX_COLORING_VERTICES: usize = 1024;
/// Serving cap on coloring edges.
pub const MAX_COLORING_EDGES: usize = 1 << 16;
/// Serving cap on QUBO variables.
pub const MAX_QUBO_VARS: usize = 1024;
/// Serving cap on QUBO terms (each of the linear and quadratic lists).
pub const MAX_QUBO_TERMS: usize = 1 << 16;

/// The two-level canonical identity of a kernel. See the `admission`
/// crate docs for why both halves must match before a cached result may
/// be served.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CanonicalKey {
    /// Coarse identity: FNV-1a over the canonical form after stable
    /// variable renumbering (SAT) and parameter quantization (compare,
    /// QUBO).
    pub key: u64,
    /// Exact identity: FNV-1a over the canonical form verbatim,
    /// including variable count and raw `f64` bit patterns.
    pub exact: u64,
}

impl CanonicalKey {
    /// A single `u64` mixing both halves, for placing the kernel on a
    /// consistent-hash ring.
    ///
    /// Routers shard by this value so duplicate submissions of the same
    /// canonical kernel land on the same shard — and therefore on the same
    /// shard-local result cache. The coarse half alone would suffice for
    /// correctness (both halves must still match inside the cache), but
    /// folding in the exact half spreads α-equivalent-but-distinct kernels
    /// across shards instead of piling a whole coarse bucket onto one.
    #[must_use]
    pub fn routing_hash(&self) -> u64 {
        let mut h = Fnv::new();
        h.u64(self.key);
        h.u64(self.exact);
        h.finish()
    }
}

/// A later family's workload: the spec payload of [`Kernel::Family`].
#[derive(Debug, Clone, PartialEq)]
pub enum FamilyKernel {
    /// Phase-dynamics vertex coloring on the oscillator array.
    Coloring(ColoringSpec),
    /// Ising/QUBO energy minimization on the DMM.
    Qubo(QuboSpec),
}

/// A vertex-coloring instance for the phase-dynamics family.
#[derive(Debug, Clone, PartialEq)]
pub struct ColoringSpec {
    /// Number of vertices (oscillators).
    pub n_vertices: usize,
    /// Number of color classes to cluster the phases into.
    pub n_colors: usize,
    /// Undirected edges as vertex-index pairs.
    pub edges: Vec<(usize, usize)>,
}

/// A QUBO instance: minimize `Σ c_i·x_i + Σ q_ij·x_i·x_j` over binary x.
#[derive(Debug, Clone, PartialEq)]
pub struct QuboSpec {
    /// Number of binary variables.
    pub n_vars: usize,
    /// Linear terms `(i, c_i)`.
    pub linear: Vec<(usize, f64)>,
    /// Quadratic terms `(i, j, q_ij)` with `i != j`.
    pub quadratic: Vec<(usize, usize, f64)>,
}

impl QuboSpec {
    /// Linear plus quadratic term count.
    pub(crate) fn terms(&self) -> usize {
        self.linear.len() + self.quadratic.len()
    }

    /// Loads the instance into the solver's problem type, reporting
    /// failures on behalf of `backend`.
    pub(crate) fn build(&self, backend: &'static str) -> Result<Qubo, AccelError> {
        let mut q = Qubo::new(self.n_vars).map_err(|e| AccelError::backend(backend, e))?;
        for &(i, c) in &self.linear {
            q.add_linear(i, c)
                .map_err(|e| AccelError::backend(backend, e))?;
        }
        for &(i, j, v) in &self.quadratic {
            q.add_quadratic(i, j, v)
                .map_err(|e| AccelError::backend(backend, e))?;
        }
        Ok(q)
    }
}

/// The result payload of a later family's execution.
#[derive(Debug, Clone, PartialEq)]
pub enum FamilyResult {
    /// A coloring: one color index per vertex, plus the number of edges
    /// whose endpoints ended up in the same phase cluster.
    Coloring {
        /// Color class per vertex.
        colors: Vec<usize>,
        /// Monochromatic (conflicting) edges.
        conflicts: u64,
    },
    /// A QUBO assignment and its objective value.
    Qubo {
        /// The binary assignment.
        bits: Vec<bool>,
        /// The objective value at `bits`.
        energy: f64,
    },
}

/// The constant identity of a family: one row of [`FAMILIES`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FamilyInfo {
    /// The stable tag (append-only; never reused): the byte that opens
    /// this family's kernel and result frames on the wire, and the domain
    /// byte of its canonical key.
    pub tag: u8,
    /// The stable family name.
    pub name: &'static str,
}

const FACTOR: FamilyInfo = FamilyInfo {
    tag: 1,
    name: "factor",
};
const SEARCH: FamilyInfo = FamilyInfo {
    tag: 2,
    name: "search",
};
const DNA_SIMILARITY: FamilyInfo = FamilyInfo {
    tag: 3,
    name: "dna-similarity",
};
const SOLVE_SAT: FamilyInfo = FamilyInfo {
    tag: 4,
    name: "solve-sat",
};
const COMPARE: FamilyInfo = FamilyInfo {
    tag: 5,
    name: "compare",
};
const COLORING: FamilyInfo = FamilyInfo {
    tag: 6,
    name: "coloring",
};
const QUBO: FamilyInfo = FamilyInfo {
    tag: 7,
    name: "qubo",
};

/// The family table: every family, in tag order.
///
/// The table is append-only and duplicate-free: the written-out copy in
/// this module's `family_table_matches_the_frozen_table` test fails on
/// any rename, retag or removal of a shipped row, as do the `family` rows
/// of `tests/family_registry.rs`.
pub const FAMILIES: [FamilyInfo; 7] = [
    FACTOR,
    SEARCH,
    DNA_SIMILARITY,
    SOLVE_SAT,
    COMPARE,
    COLORING,
    QUBO,
];

/// The family a kernel belongs to.
#[must_use]
pub fn family_of(kernel: &Kernel) -> &'static FamilyInfo {
    match kernel {
        Kernel::Factor { .. } => &FACTOR,
        Kernel::Search { .. } => &SEARCH,
        Kernel::DnaSimilarity { .. } => &DNA_SIMILARITY,
        Kernel::SolveSat { .. } => &SOLVE_SAT,
        Kernel::Compare { .. } => &COMPARE,
        Kernel::Family(FamilyKernel::Coloring(_)) => &COLORING,
        Kernel::Family(FamilyKernel::Qubo(_)) => &QUBO,
    }
}

/// The family a result belongs to.
#[must_use]
pub fn family_of_result(result: &KernelResult) -> &'static FamilyInfo {
    match result {
        KernelResult::Factors(..) => &FACTOR,
        KernelResult::Found(_) => &SEARCH,
        KernelResult::Similarity(_) => &DNA_SIMILARITY,
        KernelResult::SatSolution(_) => &SOLVE_SAT,
        KernelResult::Distance(_) => &COMPARE,
        KernelResult::Family(FamilyResult::Coloring { .. }) => &COLORING,
        KernelResult::Family(FamilyResult::Qubo { .. }) => &QUBO,
    }
}

// ---------------------------------------------------------------------------
// Description and validation. The strings and errors are frozen by the
// goldens in tests/family_registry.rs.
// ---------------------------------------------------------------------------

/// A short human-readable description (used in errors and reports).
pub(crate) fn describe(kernel: &Kernel) -> String {
    match kernel {
        Kernel::Factor { n } => format!("factor({n})"),
        Kernel::Search { n_qubits, marked } => {
            format!("search(2^{n_qubits}, {} marked)", marked.len())
        }
        Kernel::DnaSimilarity { a, b, k } => {
            format!("dna_similarity(|a|={}, |b|={}, k={k})", a.len(), b.len())
        }
        Kernel::SolveSat { formula } => format!(
            "solve_sat({} vars, {} clauses)",
            formula.n_vars(),
            formula.len()
        ),
        Kernel::Compare { x, y } => format!("compare({x:.3}, {y:.3})"),
        Kernel::Family(FamilyKernel::Coloring(spec)) => format!(
            "coloring({} vertices, {} edges, {} colors)",
            spec.n_vertices,
            spec.edges.len(),
            spec.n_colors
        ),
        Kernel::Family(FamilyKernel::Qubo(spec)) => {
            format!("qubo({} vars, {} terms)", spec.n_vars, spec.terms())
        }
    }
}

/// Validates the kernel's inputs, as done at submission time by the
/// serving layer.
pub(crate) fn validate(kernel: &Kernel) -> Result<(), InvalidKernel> {
    match kernel {
        Kernel::Factor { n } => {
            if *n < 4 {
                return Err(InvalidKernel::FactorTooSmall { n: *n });
            }
            within_cap(&FACTOR, "n", *n as usize, MAX_FACTOR_N as usize)?;
        }
        Kernel::Search { n_qubits, marked } => {
            if *n_qubits == 0 {
                return Err(InvalidKernel::EmptySearchSpace);
            }
            // The width is the whole cost of a CPU search (a 2^n scan),
            // sizes the simulator's `1 << n`, and arrives in a nine-byte
            // frame, so it is capped at the simulator's limit.
            within_cap(&SEARCH, "qubits", *n_qubits, quantum::MAX_QUBITS)?;
            let space = 1usize << n_qubits;
            if let Some(&item) = marked.iter().find(|&&m| m >= space) {
                return Err(InvalidKernel::MarkedOutOfRange {
                    item,
                    n_qubits: *n_qubits,
                });
            }
        }
        Kernel::DnaSimilarity { a, b, k } => {
            if *k == 0 {
                return Err(InvalidKernel::ZeroKmer);
            }
            // Every backend profiles k-mers through `quantum::dna`, which
            // takes k up to `MAX_KMER` over the ACGT alphabet only.
            within_cap(&DNA_SIMILARITY, "k", *k, quantum::dna::MAX_KMER)?;
            let shorter = a.len().min(b.len());
            if *k > shorter {
                return Err(InvalidKernel::KmerTooLong { k: *k, shorter });
            }
            let mut bases = a.chars().chain(b.chars());
            if let Some(base) = bases.find(|&c| quantum::dna::base_code(c).is_err()) {
                return Err(InvalidKernel::DnaInvalidBase { base });
            }
        }
        // Formula structure is enforced by construction in `mem::cnf`; the
        // variable count sizes every SAT backend's state.
        Kernel::SolveSat { formula } => {
            within_cap(&SOLVE_SAT, "variables", formula.n_vars(), MAX_SAT_VARS)?;
        }
        Kernel::Compare { x, y } => {
            if !x.is_finite() || !y.is_finite() {
                return Err(InvalidKernel::CompareNotFinite { x: *x, y: *y });
            }
            if !(0.0..=1.0).contains(x) || !(0.0..=1.0).contains(y) {
                return Err(InvalidKernel::CompareOutOfRange { x: *x, y: *y });
            }
        }
        Kernel::Family(FamilyKernel::Coloring(spec)) => validate_coloring(spec)?,
        Kernel::Family(FamilyKernel::Qubo(spec)) => validate_qubo(spec)?,
    }
    Ok(())
}

/// Rejects a size beyond its family's serving cap.
fn within_cap(
    info: &FamilyInfo,
    field: &'static str,
    len: usize,
    max: usize,
) -> Result<(), InvalidKernel> {
    if len > max {
        return Err(InvalidKernel::FamilyTooLarge {
            family: info.name,
            field,
            len,
            max,
        });
    }
    Ok(())
}

fn validate_coloring(spec: &ColoringSpec) -> Result<(), InvalidKernel> {
    within_cap(
        &COLORING,
        "vertices",
        spec.n_vertices,
        MAX_COLORING_VERTICES,
    )?;
    within_cap(&COLORING, "edges", spec.edges.len(), MAX_COLORING_EDGES)?;
    if spec.n_vertices < 2 || spec.n_colors < 2 || spec.n_colors > spec.n_vertices {
        return Err(InvalidKernel::ColoringDegenerate {
            n_vertices: spec.n_vertices,
            n_colors: spec.n_colors,
        });
    }
    for &(a, b) in &spec.edges {
        if a >= spec.n_vertices || b >= spec.n_vertices || a == b {
            return Err(InvalidKernel::ColoringEdgeInvalid {
                a,
                b,
                n_vertices: spec.n_vertices,
            });
        }
    }
    Ok(())
}

fn validate_qubo(spec: &QuboSpec) -> Result<(), InvalidKernel> {
    if spec.n_vars == 0 {
        return Err(InvalidKernel::QuboEmpty);
    }
    within_cap(&QUBO, "variables", spec.n_vars, MAX_QUBO_VARS)?;
    within_cap(&QUBO, "linear terms", spec.linear.len(), MAX_QUBO_TERMS)?;
    within_cap(
        &QUBO,
        "quadratic terms",
        spec.quadratic.len(),
        MAX_QUBO_TERMS,
    )?;
    for &(i, c) in &spec.linear {
        if i >= spec.n_vars {
            return Err(InvalidKernel::QuboIndexInvalid {
                i,
                j: i,
                n_vars: spec.n_vars,
            });
        }
        if !c.is_finite() {
            return Err(InvalidKernel::QuboCoefficientNotFinite { i, j: i });
        }
    }
    for &(i, j, v) in &spec.quadratic {
        if i >= spec.n_vars || j >= spec.n_vars || i == j {
            return Err(InvalidKernel::QuboIndexInvalid {
                i,
                j,
                n_vars: spec.n_vars,
            });
        }
        if !v.is_finite() {
            return Err(InvalidKernel::QuboCoefficientNotFinite { i, j });
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Canonical form and key. The hashes are frozen by the goldens in
// tests/family_registry.rs.
// ---------------------------------------------------------------------------

/// Rewrites a kernel into the canonical form the runtime executes:
///
/// * `SolveSat` — literals sorted within each clause, clauses sorted
///   lexicographically and deduplicated, all in the original variable
///   space. Idempotent, and a satisfying assignment of the canonical
///   formula satisfies the submitted one (same clauses as a set).
/// * `Search` — marked items sorted and deduplicated.
/// * `Compare` — negative zero normalized to positive zero (the two are
///   numerically equal, so every backend's distance is unchanged).
/// * `Factor`, `DnaSimilarity` — already canonical; returned unchanged.
/// * Coloring and QUBO — edge-sorted graphs, combined-and-sorted
///   coefficients.
///
/// Never fails: if a rebuilt formula would be rejected by its validating
/// constructor (impossible for input that passed `Kernel::validate`), the
/// kernel is returned unchanged.
#[must_use]
pub fn canonicalize(kernel: &Kernel) -> Kernel {
    match kernel {
        Kernel::Factor { .. } | Kernel::DnaSimilarity { .. } => kernel.clone(),
        Kernel::Search { n_qubits, marked } => {
            let mut marked = marked.clone();
            marked.sort_unstable();
            marked.dedup();
            Kernel::Search {
                n_qubits: *n_qubits,
                marked,
            }
        }
        Kernel::SolveSat { formula } => canonical_formula(formula)
            .map_or_else(|| kernel.clone(), |formula| Kernel::SolveSat { formula }),
        Kernel::Compare { x, y } => Kernel::Compare {
            x: scrub_zero(*x),
            y: scrub_zero(*y),
        },
        Kernel::Family(FamilyKernel::Coloring(spec)) => {
            // Graph normal form: undirected edges as ordered pairs, sorted,
            // deduplicated.
            let mut edges: Vec<(usize, usize)> = spec
                .edges
                .iter()
                .map(|&(a, b)| (a.min(b), a.max(b)))
                .collect();
            edges.sort_unstable();
            edges.dedup();
            Kernel::Family(FamilyKernel::Coloring(ColoringSpec {
                n_vertices: spec.n_vertices,
                n_colors: spec.n_colors,
                edges,
            }))
        }
        Kernel::Family(FamilyKernel::Qubo(spec)) => {
            Kernel::Family(FamilyKernel::Qubo(canonical_qubo(spec)))
        }
    }
}

/// The canonical clause ordering: literals sorted within each clause,
/// clauses sorted lexicographically, duplicates removed — the order of
/// [`canonical_clauses`]. `None` only if a rebuilt clause or formula fails
/// validation, which cannot happen for a formula that was valid on the way
/// in, or if a variable index does not fit a literal code.
fn canonical_formula(formula: &Formula) -> Option<Formula> {
    if formula.n_vars() > (u64::MAX >> 1) as usize {
        return None;
    }
    let codes = sorted_literal_codes(formula);
    let clauses = canonical_clauses(formula, &codes)
        .into_iter()
        .map(|span| Clause::new(span.iter().map(|&code| literal_of(code)).collect()).ok())
        .collect::<Option<Vec<Clause>>>()?;
    Formula::new(formula.n_vars(), clauses).ok()
}

/// A literal as one sortable code, `var << 1 | negated`: codes order
/// exactly as [`Literal`]'s derived `Ord` (variable, then positive before
/// negated), so a clause of codes sorts and compares as its literals do.
fn literal_code(lit: Literal) -> u64 {
    (lit.var() as u64) << 1 | u64::from(lit.is_negated())
}

/// The literal a [`literal_code`] stands for.
fn literal_of(code: u64) -> Literal {
    let var = (code >> 1) as usize;
    if code & 1 == 1 {
        Literal::negative(var)
    } else {
        Literal::positive(var)
    }
}

/// Every clause's literal codes, each clause sorted in place, in one flat
/// buffer in submission order.
fn sorted_literal_codes(formula: &Formula) -> Vec<u64> {
    let total = formula.clauses().iter().map(Clause::len).sum();
    let mut codes = Vec::with_capacity(total);
    for clause in formula.clauses() {
        let start = codes.len();
        codes.extend(clause.literals().iter().map(|&lit| literal_code(lit)));
        if let Some(span) = codes.get_mut(start..) {
            span.sort_unstable();
        }
    }
    codes
}

/// The canonical clause index over [`sorted_literal_codes`]: one span per
/// clause, sorted lexicographically and deduplicated. Canonical clause
/// order has this one definition; the SAT key hashes it and
/// [`canonical_formula`] builds from it.
fn canonical_clauses<'a>(formula: &Formula, codes: &'a [u64]) -> Vec<&'a [u64]> {
    let mut clauses = Vec::with_capacity(formula.len());
    let mut rest = codes;
    for clause in formula.clauses() {
        let Some((span, tail)) = rest.split_at_checked(clause.len()) else {
            break;
        };
        clauses.push(span);
        rest = tail;
    }
    clauses.sort_unstable();
    clauses.dedup();
    clauses
}

/// Coefficient normal form: like terms combined, exact zeros dropped,
/// `-0.0` scrubbed, sorted by index.
fn canonical_qubo(spec: &QuboSpec) -> QuboSpec {
    let mut linear: BTreeMap<usize, f64> = BTreeMap::new();
    for &(i, c) in &spec.linear {
        *linear.entry(i).or_insert(0.0) += c;
    }
    let linear: Vec<(usize, f64)> = linear
        .into_iter()
        .filter(|&(_, c)| c != 0.0)
        .map(|(i, c)| (i, scrub_zero(c)))
        .collect();
    let mut quadratic: BTreeMap<(usize, usize), f64> = BTreeMap::new();
    for &(i, j, v) in &spec.quadratic {
        *quadratic.entry((i.min(j), i.max(j))).or_insert(0.0) += v;
    }
    let quadratic: Vec<(usize, usize, f64)> = quadratic
        .into_iter()
        .filter(|&(_, v)| v != 0.0)
        .map(|((i, j), v)| (i, j, scrub_zero(v)))
        .collect();
    QuboSpec {
        n_vars: spec.n_vars,
        linear,
        quadratic,
    }
}

/// `-0.0` and `+0.0` compare equal but have different bit patterns; fold
/// them together so the exact hash does not split them.
fn scrub_zero(v: f64) -> f64 {
    if v == 0.0 {
        0.0
    } else {
        v
    }
}

/// Derives the two-level [`CanonicalKey`] of a kernel's canonical form:
/// `canonical_key(k) == canonical_key(&canonicalize(k))` for any kernel.
/// The first byte hashed is the family's tag, which keeps the families'
/// keys apart.
///
/// A SAT key is hashed straight from the canonical clause index, so no
/// canonical `Formula` is built; the other families canonicalize and hash
/// (each well under a microsecond).
#[must_use]
pub fn canonical_key(kernel: &Kernel) -> CanonicalKey {
    match kernel {
        Kernel::SolveSat { formula } => sat_key(formula),
        _ => form_key(&canonicalize(kernel)),
    }
}

/// The key of a kernel already in canonical form.
fn form_key(kernel: &Kernel) -> CanonicalKey {
    // Families with nothing to quantize or renumber hash the same bytes
    // into both halves.
    let mut h = Fnv::new();
    match kernel {
        Kernel::SolveSat { formula } => return sat_key(formula),
        Kernel::Compare { x, y } => return compare_key(*x, *y),
        Kernel::Family(FamilyKernel::Qubo(spec)) => return qubo_key(spec),
        Kernel::Factor { n } => {
            h.byte(FACTOR.tag);
            h.u64(*n);
        }
        Kernel::Search { n_qubits, marked } => {
            h.byte(SEARCH.tag);
            h.u64(*n_qubits as u64);
            h.u64(marked.len() as u64);
            for &m in marked {
                h.u64(m as u64);
            }
        }
        Kernel::DnaSimilarity { a, b, k } => {
            h.byte(DNA_SIMILARITY.tag);
            h.u64(a.len() as u64);
            h.bytes(a.as_bytes());
            h.u64(b.len() as u64);
            h.bytes(b.as_bytes());
            h.u64(*k as u64);
        }
        Kernel::Family(FamilyKernel::Coloring(spec)) => {
            h.byte(COLORING.tag);
            h.u64(spec.n_vertices as u64);
            h.u64(spec.n_colors as u64);
            h.u64(spec.edges.len() as u64);
            for &(a, b) in &spec.edges {
                h.u64(a as u64);
                h.u64(b as u64);
            }
        }
    }
    CanonicalKey {
        key: h.finish(),
        exact: h.finish(),
    }
}

/// The key of a formula's canonical form, hashed in one pass over its
/// canonical clause index. The exact half is the canonical form verbatim:
/// variable count, clause count, then each clause's width and literals.
///
/// The coarse half renumbers variables densely in the order they first
/// appear in the canonical clause stream and leaves the variable *count*
/// out, so formulas that differ only by a variable permutation or by
/// trailing unused variables share a bucket. The exact half still
/// separates them before any bytes are served.
fn sat_key(formula: &Formula) -> CanonicalKey {
    let codes = sorted_literal_codes(formula);
    let clauses = canonical_clauses(formula, &codes);
    let mut renumbering = Renumbering::new(codes.len().min(formula.n_vars()));
    let mut coarse = Fnv::new();
    let mut exact = Fnv::new();
    exact.byte(SOLVE_SAT.tag);
    exact.u64(formula.n_vars() as u64);
    exact.u64(clauses.len() as u64);
    coarse.byte(SOLVE_SAT.tag);
    coarse.u64(clauses.len() as u64);
    for clause in &clauses {
        exact.u64(clause.len() as u64);
        coarse.u64(clause.len() as u64);
        for &code in *clause {
            let (var, negated) = (code >> 1, (code & 1) as u8);
            exact.u64(var);
            exact.byte(negated);
            coarse.u64(renumbering.dense(var));
            coarse.byte(negated);
        }
    }
    CanonicalKey {
        key: coarse.finish(),
        exact: exact.finish(),
    }
}

/// The coarse SAT half's first-occurrence renumbering: an open-addressed
/// table of `(variable, dense number)` rows with room for twice the
/// distinct variables there can be — no more than the literals present,
/// so a declared variable count of 2³² − 1 (a 41-byte frame can carry
/// one) never sizes it.
struct Renumbering {
    slots: Vec<(u64, u64)>,
    shift: u32,
    next: u64,
}

impl Renumbering {
    /// An empty slot: no variable reaches it, as variables are below 2⁶³.
    const EMPTY: u64 = u64::MAX;

    fn new(max_distinct: usize) -> Self {
        let capacity = (2 * max_distinct).next_power_of_two().max(2);
        Renumbering {
            slots: vec![(Self::EMPTY, 0); capacity],
            shift: 64 - capacity.trailing_zeros(),
            next: 0,
        }
    }

    /// `var`'s dense number, handing out the next one on its first visit.
    fn dense(&mut self, var: u64) -> u64 {
        let mask = self.slots.len() - 1;
        // Fibonacci hashing: the product's top bits pick the first slot.
        let mut at = (var.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> self.shift) as usize;
        // At most half the slots ever fill, so a probe ends at an empty
        // slot or at `var`'s own.
        while let Some(slot) = self.slots.get_mut(at) {
            if slot.0 == Self::EMPTY {
                *slot = (var, self.next);
                self.next += 1;
            }
            if slot.0 == var {
                return slot.1;
            }
            at = (at + 1) & mask;
        }
        var // unreachable: `at` is masked into the table
    }
}

fn compare_key(x: f64, y: f64) -> CanonicalKey {
    let mut coarse = Fnv::new();
    let mut exact = Fnv::new();
    exact.byte(COMPARE.tag);
    exact.u64(x.to_bits());
    exact.u64(y.to_bits());
    coarse.byte(COMPARE.tag);
    coarse.u64(quantize(x));
    coarse.u64(quantize(y));
    CanonicalKey {
        key: coarse.finish(),
        exact: exact.finish(),
    }
}

fn qubo_key(spec: &QuboSpec) -> CanonicalKey {
    let mut coarse = Fnv::new();
    let mut exact = Fnv::new();
    exact.byte(QUBO.tag);
    exact.u64(spec.n_vars as u64);
    exact.u64(spec.linear.len() as u64);
    for &(i, c) in &spec.linear {
        exact.u64(i as u64);
        exact.u64(c.to_bits());
    }
    exact.u64(spec.quadratic.len() as u64);
    for &(i, j, v) in &spec.quadratic {
        exact.u64(i as u64);
        exact.u64(j as u64);
        exact.u64(v.to_bits());
    }
    // Coarse half: same structure with coefficients snapped to the QUBO
    // lattice, so near-identical objective surfaces bucket together while
    // the exact half keeps them apart.
    coarse.byte(QUBO.tag);
    coarse.u64(spec.n_vars as u64);
    coarse.u64(spec.linear.len() as u64);
    for &(i, c) in &spec.linear {
        coarse.u64(i as u64);
        coarse.u64(quantize_coefficient(c));
    }
    coarse.u64(spec.quadratic.len() as u64);
    for &(i, j, v) in &spec.quadratic {
        coarse.u64(i as u64);
        coarse.u64(j as u64);
        coarse.u64(quantize_coefficient(v));
    }
    CanonicalKey {
        key: coarse.finish(),
        exact: exact.finish(),
    }
}

/// Snaps an analog operand to the coarse-key lattice.
fn quantize(v: f64) -> u64 {
    // Operands are validated into [0, 1], so the product fits comfortably
    // in i64; the cast saturates rather than wrapping if it ever did not.
    ((v * COMPARE_QUANTUM).round() as i64) as u64
}

/// Snaps a QUBO coefficient to the coarse-key lattice.
fn quantize_coefficient(v: f64) -> u64 {
    // Coefficients are validated finite; the cast saturates at the i64
    // range rather than wrapping for extreme magnitudes.
    ((v * QUBO_QUANTUM).round() as i64) as u64
}

// ---------------------------------------------------------------------------
// Frame bodies; tests/wire_golden.rs pins the bytes. Every count is written
// against the cap its decoder enforces, and read back checked against that
// cap and the remaining input before any allocation.
// ---------------------------------------------------------------------------

/// Encodes a kernel as the body of its family's frame (what follows
/// [`FamilyInfo::tag`]).
///
/// # Errors
///
/// [`CodecError::TooLarge`] for a field beyond its wire cap.
pub fn encode_body(kernel: &Kernel, w: &mut ByteWriter) -> Result<(), CodecError> {
    match kernel {
        Kernel::Factor { n } => w.put_u64(capped(*n, MAX_FACTOR_N as usize, "factor n")?),
        Kernel::Search { n_qubits, marked } => {
            w.put_count(*n_qubits, u32::MAX, "search width")?;
            w.put_count(marked.len(), MAX_SEQUENCE_LEN, "marked items")?;
            for &item in marked {
                w.put_u64(item as u64);
            }
        }
        Kernel::DnaSimilarity { a, b, k } => {
            w.put_str(a)?;
            w.put_str(b)?;
            w.put_u64(*k as u64);
        }
        Kernel::SolveSat { formula } => {
            w.put_count(formula.n_vars(), MAX_SAT_VARS as u32, "formula variables")?;
            w.put_count(formula.len(), MAX_CLAUSES, "formula clauses")?;
            for clause in formula.clauses() {
                w.put_count(clause.len(), MAX_CLAUSE_WIDTH, "clause width")?;
                for lit in clause.literals() {
                    w.put_i64(lit.to_dimacs());
                }
            }
        }
        Kernel::Compare { x, y } => {
            w.put_f64(*x);
            w.put_f64(*y);
        }
        Kernel::Family(FamilyKernel::Coloring(spec)) => {
            let max = MAX_COLORING_VERTICES;
            w.put_u64(capped(spec.n_vertices as u64, max, "coloring vertices")?);
            w.put_u64(capped(spec.n_colors as u64, max, "coloring colors")?);
            w.put_count(
                spec.edges.len(),
                MAX_COLORING_EDGES as u32,
                "coloring edges",
            )?;
            for &(a, b) in &spec.edges {
                w.put_u64(a as u64);
                w.put_u64(b as u64);
            }
        }
        Kernel::Family(FamilyKernel::Qubo(spec)) => {
            w.put_u64(capped(spec.n_vars as u64, MAX_QUBO_VARS, "qubo variables")?);
            w.put_count(
                spec.linear.len(),
                MAX_QUBO_TERMS as u32,
                "qubo linear terms",
            )?;
            for &(i, c) in &spec.linear {
                w.put_u64(i as u64);
                w.put_f64(c);
            }
            w.put_count(
                spec.quadratic.len(),
                MAX_QUBO_TERMS as u32,
                "qubo quadratic terms",
            )?;
            for &(i, j, v) in &spec.quadratic {
                w.put_u64(i as u64);
                w.put_u64(j as u64);
                w.put_f64(v);
            }
        }
    }
    Ok(())
}

/// Decodes the body of a `family` frame back into a kernel.
///
/// # Errors
///
/// Any [`CodecError`] on malformed input, or a `family` that is not a row
/// of [`FAMILIES`]; never panics.
pub fn decode_body(family: &FamilyInfo, r: &mut ByteReader<'_>) -> Result<Kernel, CodecError> {
    Ok(match *family {
        FACTOR => Kernel::Factor {
            n: capped(r.get_u64("factor n")?, MAX_FACTOR_N as usize, "factor n")?,
        },
        SEARCH => {
            let n_qubits = r.get_u32("search width")? as usize;
            let count = r.get_count(MAX_SEQUENCE_LEN, 8, "marked items")?;
            let mut marked = Vec::with_capacity(count);
            for _ in 0..count {
                marked.push(r.get_usize("marked item")?);
            }
            Kernel::Search { n_qubits, marked }
        }
        DNA_SIMILARITY => Kernel::DnaSimilarity {
            a: r.get_str("dna sequence a")?,
            b: r.get_str("dna sequence b")?,
            k: r.get_usize("dna k")?,
        },
        SOLVE_SAT => Kernel::SolveSat {
            formula: decode_formula(r)?,
        },
        COMPARE => Kernel::Compare {
            x: r.get_f64("compare x")?,
            y: r.get_f64("compare y")?,
        },
        COLORING => Kernel::Family(FamilyKernel::Coloring(decode_coloring(r)?)),
        QUBO => Kernel::Family(FamilyKernel::Qubo(decode_qubo(r)?)),
        _ => return Err(unknown_family(family)),
    })
}

/// The formula is rebuilt through `mem::cnf`'s validating constructors,
/// so a decoded formula is structurally sound.
fn decode_formula(r: &mut ByteReader<'_>) -> Result<Formula, CodecError> {
    let invalid = |context, e: mem::MemError| CodecError::Invalid {
        context,
        detail: e.to_string(),
    };
    let context = "formula variables";
    let n_vars = capped(u64::from(r.get_u32(context)?), MAX_SAT_VARS, context)? as usize;
    // Each clause needs at least a length word plus one literal.
    let clause_count = r.get_count(MAX_CLAUSES, 12, "formula clauses")?;
    let mut clauses = Vec::with_capacity(clause_count);
    for _ in 0..clause_count {
        let width = r.get_count(MAX_CLAUSE_WIDTH, 8, "clause width")?;
        let mut literals = Vec::with_capacity(width);
        for _ in 0..width {
            let code = r.get_i64("literal")?;
            literals.push(Literal::from_dimacs(code).map_err(|e| invalid("literal", e))?);
        }
        clauses.push(Clause::new(literals).map_err(|e| invalid("clause", e))?);
    }
    Formula::new(n_vars, clauses).map_err(|e| invalid("formula", e))
}

/// Passes `len` through if it is within the serving cap `max`. Encoder
/// and decoder both call it, so nothing encodes that the peer refuses.
fn capped(len: u64, max: usize, context: &'static str) -> Result<u64, CodecError> {
    if len > max as u64 {
        return Err(CodecError::TooLarge {
            context,
            len,
            max: max as u64,
        });
    }
    Ok(len)
}

fn decode_coloring(r: &mut ByteReader<'_>) -> Result<ColoringSpec, CodecError> {
    let context = "coloring vertices";
    let n_vertices = capped(r.get_u64(context)?, MAX_COLORING_VERTICES, context)?;
    let context = "coloring colors";
    let n_colors = capped(r.get_u64(context)?, MAX_COLORING_VERTICES, context)?;
    let count = r.get_count(MAX_COLORING_EDGES as u32, 16, "coloring edges")?;
    let mut edges = Vec::with_capacity(count);
    for _ in 0..count {
        let a = r.get_u64("coloring edge endpoint")?;
        let b = r.get_u64("coloring edge endpoint")?;
        edges.push((a as usize, b as usize));
    }
    Ok(ColoringSpec {
        n_vertices: n_vertices as usize,
        n_colors: n_colors as usize,
        edges,
    })
}

fn decode_qubo(r: &mut ByteReader<'_>) -> Result<QuboSpec, CodecError> {
    let context = "qubo variables";
    let n_vars = capped(r.get_u64(context)?, MAX_QUBO_VARS, context)?;
    let n_linear = r.get_count(MAX_QUBO_TERMS as u32, 16, "qubo linear terms")?;
    let mut linear = Vec::with_capacity(n_linear);
    for _ in 0..n_linear {
        let i = r.get_u64("qubo linear index")?;
        let c = r.get_f64("qubo linear coefficient")?;
        linear.push((i as usize, c));
    }
    let n_quadratic = r.get_count(MAX_QUBO_TERMS as u32, 24, "qubo quadratic terms")?;
    let mut quadratic = Vec::with_capacity(n_quadratic);
    for _ in 0..n_quadratic {
        let i = r.get_u64("qubo quadratic index")?;
        let j = r.get_u64("qubo quadratic index")?;
        let v = r.get_f64("qubo quadratic coefficient")?;
        quadratic.push((i as usize, j as usize, v));
    }
    Ok(QuboSpec {
        n_vars: n_vars as usize,
        linear,
        quadratic,
    })
}

/// Encodes a result as the body of its family's result frame.
///
/// # Errors
///
/// [`CodecError::TooLarge`] for a field beyond its wire cap.
pub fn encode_result_body(result: &KernelResult, w: &mut ByteWriter) -> Result<(), CodecError> {
    match result {
        KernelResult::Factors(p, q) => {
            w.put_u64(*p);
            w.put_u64(*q);
        }
        KernelResult::Found(item) => w.put_u64(*item as u64),
        KernelResult::Similarity(s) => w.put_f64(*s),
        KernelResult::SatSolution(solution) => match solution {
            Some(bits) => {
                w.put_u8(1);
                w.put_count(bits.len(), MAX_SEQUENCE_LEN, "sat assignment")?;
                for &bit in bits {
                    w.put_u8(u8::from(bit));
                }
            }
            None => w.put_u8(0),
        },
        KernelResult::Distance(d) => w.put_f64(*d),
        KernelResult::Family(FamilyResult::Coloring { colors, conflicts }) => {
            w.put_count(
                colors.len(),
                MAX_COLORING_VERTICES as u32,
                "coloring result colors",
            )?;
            for &c in colors {
                w.put_u32(c as u32);
            }
            w.put_u64(*conflicts);
        }
        KernelResult::Family(FamilyResult::Qubo { bits, energy }) => {
            w.put_count(bits.len(), MAX_QUBO_VARS as u32, "qubo result bits")?;
            for &b in bits {
                w.put_u8(u8::from(b));
            }
            w.put_f64(*energy);
        }
    }
    Ok(())
}

/// Decodes the body of a `family` result frame.
///
/// # Errors
///
/// Any [`CodecError`] on malformed input, or a `family` that is not a row
/// of [`FAMILIES`]; never panics.
pub fn decode_result_body(
    family: &FamilyInfo,
    r: &mut ByteReader<'_>,
) -> Result<KernelResult, CodecError> {
    Ok(match *family {
        FACTOR => KernelResult::Factors(r.get_u64("factor p")?, r.get_u64("factor q")?),
        SEARCH => KernelResult::Found(r.get_usize("found item")?),
        DNA_SIMILARITY => KernelResult::Similarity(r.get_f64("similarity")?),
        SOLVE_SAT => {
            if !decode_bit(r, "sat solution flag")? {
                return Ok(KernelResult::SatSolution(None));
            }
            let count = r.get_count(MAX_SEQUENCE_LEN, 1, "sat assignment")?;
            let mut bits = Vec::with_capacity(count);
            for _ in 0..count {
                bits.push(decode_bit(r, "sat assignment bit")?);
            }
            KernelResult::SatSolution(Some(bits))
        }
        COMPARE => KernelResult::Distance(r.get_f64("distance")?),
        COLORING => {
            let count = r.get_count(MAX_COLORING_VERTICES as u32, 4, "coloring result colors")?;
            let mut colors = Vec::with_capacity(count);
            for _ in 0..count {
                colors.push(r.get_u32("coloring result color")? as usize);
            }
            let conflicts = r.get_u64("coloring result conflicts")?;
            KernelResult::Family(FamilyResult::Coloring { colors, conflicts })
        }
        QUBO => {
            let count = r.get_count(MAX_QUBO_VARS as u32, 1, "qubo result bits")?;
            let mut bits = Vec::with_capacity(count);
            for _ in 0..count {
                bits.push(decode_bit(r, "qubo result bit")?);
            }
            let energy = r.get_f64("qubo result energy")?;
            KernelResult::Family(FamilyResult::Qubo { bits, energy })
        }
        _ => return Err(unknown_family(family)),
    })
}

/// Reads one boolean travelling as a 0/1 byte.
fn decode_bit(r: &mut ByteReader<'_>, context: &'static str) -> Result<bool, CodecError> {
    match r.get_u8(context)? {
        0 => Ok(false),
        1 => Ok(true),
        other => Err(CodecError::Invalid {
            context,
            detail: format!("expected 0 or 1, got {other}"),
        }),
    }
}

/// The refusal of a `family` that is not a row of [`FAMILIES`].
fn unknown_family(family: &FamilyInfo) -> CodecError {
    CodecError::Invalid {
        context: "family tag",
        detail: format!("unknown kernel family tag {}", family.tag),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn coloring(n: usize, colors: usize, edges: &[(usize, usize)]) -> Kernel {
        Kernel::Family(FamilyKernel::Coloring(ColoringSpec {
            n_vertices: n,
            n_colors: colors,
            edges: edges.to_vec(),
        }))
    }

    fn qubo(n: usize, linear: &[(usize, f64)], quadratic: &[(usize, usize, f64)]) -> Kernel {
        Kernel::Family(FamilyKernel::Qubo(QuboSpec {
            n_vars: n,
            linear: linear.to_vec(),
            quadratic: quadratic.to_vec(),
        }))
    }

    #[test]
    fn family_table_matches_the_frozen_table() {
        // Every row ever shipped, written out: the table is append-only,
        // so this literal only ever grows at its end.
        const SHIPPED: &[(u8, &str)] = &[
            (1, "factor"),
            (2, "search"),
            (3, "dna-similarity"),
            (4, "solve-sat"),
            (5, "compare"),
            (6, "coloring"),
            (7, "qubo"),
        ];
        let table: Vec<(u8, &str)> = FAMILIES.iter().map(|f| (f.tag, f.name)).collect();
        assert_eq!(table, SHIPPED);
    }

    #[test]
    fn coloring_validation_catches_degenerate_and_hostile_specs() {
        assert!(coloring(5, 3, &[(0, 1), (1, 4)]).validate().is_ok());
        assert!(matches!(
            coloring(1, 2, &[]).validate(),
            Err(InvalidKernel::ColoringDegenerate { .. })
        ));
        assert!(matches!(
            coloring(4, 1, &[]).validate(),
            Err(InvalidKernel::ColoringDegenerate { .. })
        ));
        assert!(matches!(
            coloring(4, 5, &[]).validate(),
            Err(InvalidKernel::ColoringDegenerate { .. })
        ));
        assert!(matches!(
            coloring(4, 2, &[(0, 4)]).validate(),
            Err(InvalidKernel::ColoringEdgeInvalid { b: 4, .. })
        ));
        assert!(matches!(
            coloring(4, 2, &[(2, 2)]).validate(),
            Err(InvalidKernel::ColoringEdgeInvalid { a: 2, b: 2, .. })
        ));
        assert!(matches!(
            coloring(MAX_COLORING_VERTICES + 1, 2, &[]).validate(),
            Err(InvalidKernel::FamilyTooLarge { .. })
        ));
    }

    #[test]
    fn qubo_validation_catches_degenerate_and_hostile_specs() {
        assert!(qubo(3, &[(0, 1.0)], &[(0, 1, -2.0)]).validate().is_ok());
        assert_eq!(qubo(0, &[], &[]).validate(), Err(InvalidKernel::QuboEmpty));
        assert!(matches!(
            qubo(2, &[(2, 1.0)], &[]).validate(),
            Err(InvalidKernel::QuboIndexInvalid { i: 2, .. })
        ));
        assert!(matches!(
            qubo(2, &[], &[(1, 1, 1.0)]).validate(),
            Err(InvalidKernel::QuboIndexInvalid { i: 1, j: 1, .. })
        ));
        assert!(matches!(
            qubo(2, &[(0, f64::NAN)], &[]).validate(),
            Err(InvalidKernel::QuboCoefficientNotFinite { .. })
        ));
        assert!(matches!(
            qubo(MAX_QUBO_VARS + 1, &[], &[]).validate(),
            Err(InvalidKernel::FamilyTooLarge { .. })
        ));
    }

    #[test]
    fn coloring_canonical_form_orders_and_dedups_edges() {
        let raw = coloring(4, 2, &[(3, 1), (0, 2), (1, 3), (2, 0)]);
        let canon = canonicalize(&raw);
        assert_eq!(canon, coloring(4, 2, &[(0, 2), (1, 3)]));
        // Idempotent, and syntactic variants share both key halves.
        assert_eq!(canon, canonicalize(&canon));
        assert_eq!(canonical_key(&canon), canonical_key(&canonicalize(&raw)));
    }

    #[test]
    fn qubo_canonical_form_combines_and_drops_terms() {
        let raw = qubo(
            3,
            &[(1, 0.5), (0, 1.0), (1, -0.5)],
            &[(2, 0, 1.0), (0, 2, 0.5), (1, 2, 0.0)],
        );
        let canon = canonicalize(&raw);
        assert_eq!(canon, qubo(3, &[(0, 1.0)], &[(0, 2, 1.5)]));
        assert_eq!(canon, canonicalize(&canon));
    }

    #[test]
    fn qubo_coarse_key_quantizes_and_exact_key_does_not() {
        let ka = canonical_key(&qubo(2, &[(0, 0.5)], &[]));
        let kb = canonical_key(&qubo(2, &[(0, 0.5 + 1e-9)], &[]));
        assert_eq!(ka.key, kb.key);
        assert_ne!(ka.exact, kb.exact);
    }

    #[test]
    fn new_family_keys_are_domain_separated() {
        let kc = canonical_key(&coloring(3, 2, &[(0, 1)]));
        let kq = canonical_key(&qubo(3, &[], &[]));
        assert_ne!(kc, kq);
    }

    /// A kernel's frame body.
    fn body_of(kernel: &Kernel) -> Vec<u8> {
        let mut w = ByteWriter::new();
        encode_body(kernel, &mut w).expect("encode");
        w.into_bytes()
    }

    fn kernel_from(family: &FamilyInfo, body: &[u8]) -> Result<Kernel, CodecError> {
        decode_body(family, &mut ByteReader::new(body))
    }

    #[test]
    fn kernel_bodies_round_trip() {
        let kernels = [
            coloring(5, 3, &[(0, 1), (1, 2), (3, 4)]),
            coloring(2, 2, &[]),
            qubo(4, &[(0, 1.5), (3, -0.25)], &[(0, 1, 2.0), (2, 3, -1.0)]),
            qubo(1, &[], &[]),
        ];
        for kernel in kernels {
            let family = family_of(&kernel);
            assert_eq!(kernel_from(family, &body_of(&kernel)), Ok(kernel));
        }
    }

    #[test]
    fn result_bodies_round_trip() {
        let results = [
            FamilyResult::Coloring {
                colors: vec![0, 1, 0, 2],
                conflicts: 1,
            },
            FamilyResult::Qubo {
                bits: vec![true, false, true],
                energy: -2.5,
            },
        ];
        for result in results.map(KernelResult::Family) {
            let mut w = ByteWriter::new();
            encode_result_body(&result, &mut w).expect("encode");
            let body = w.into_bytes();
            let mut r = ByteReader::new(&body);
            assert_eq!(
                decode_result_body(family_of_result(&result), &mut r),
                Ok(result)
            );
            assert_eq!(r.finish(), Ok(()));
        }
    }

    #[test]
    fn hostile_bodies_error_and_never_panic() {
        // Truncations at every prefix of a valid body.
        let body = body_of(&qubo(3, &[(0, 1.0)], &[(1, 2, -1.0)]));
        for cut in 0..body.len() {
            assert!(kernel_from(&QUBO, &body[..cut]).is_err(), "cut {cut}");
        }
        // A hostile length claim cannot force a large allocation.
        let mut hostile = ByteWriter::new();
        hostile.put_u64(4); // n_vertices
        hostile.put_u64(2); // n_colors
        hostile.put_u32(u32::MAX); // edge count
        assert!(matches!(
            kernel_from(&COLORING, &hostile.into_bytes()),
            Err(CodecError::TooLarge { .. } | CodecError::Truncated { .. })
        ));
        // Non-boolean result bits are rejected.
        let mut bad = ByteWriter::new();
        bad.put_u32(1);
        bad.put_u8(7);
        bad.put_f64(0.0);
        let bad = bad.into_bytes();
        assert!(matches!(
            decode_result_body(&QUBO, &mut ByteReader::new(&bad)),
            Err(CodecError::Invalid { .. })
        ));
    }
}

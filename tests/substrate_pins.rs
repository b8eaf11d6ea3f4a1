//! Substrate pins: what the three simulators answer, written out.
//!
//! For each of the seven kernel families, three `(kernel, seed)` pairs at
//! the sizes the benchmark's `device-mix` serves, plus two Grover searches,
//! a QUBO and a 3-SAT formula at the sizes `substrate-direct` calls,
//! dispatched through
//! [`standard_pool`] under `PreferSpecialized` with a per-job reseed — the
//! path a runtime worker takes. Each row pins the backend that answered,
//! the result, the operation count and the bits of the modelled device
//! seconds. The simulators' inner loops may be rearranged freely as long
//! as every floating-point operation stays the same operation in the same
//! per-element order (DESIGN.md §10); a row that moves is a bug in the
//! rearrangement, not a reason to regenerate. Grover search is the one
//! exception to "same operations": it is carried in its two-dimensional
//! invariant plane (DIVERGENCES.md), and its rows were generated on the
//! whole state vector before that change and still pass after it.
//!
//! The table was generated before the first inner-loop rework, at the
//! commit that still ran one circuit simulation per swap-test shot. The
//! `qubo_*` rows were regenerated once, when the served QUBO became the
//! best of 20 restarts of 250 steps and began to be charged the steps it
//! integrated (DIVERGENCES.md). To regenerate after an *intentional*
//! change of the model itself:
//!
//! ```text
//! cargo test --release --test substrate_pins regenerate -- --ignored --nocapture
//! ```

use accel::backends::standard_pool;
use accel::family::{ColoringSpec, FamilyKernel, FamilyResult, QuboSpec};
use accel::host::{DispatchPolicy, DispatchRequest, HostRuntime};
use accel::kernel::{Kernel, KernelResult};
use mem::generators::planted_3sat;
use numerics::rng::{rng_from_seed, Rng, StdRng};

const POOL_SEED: u64 = 2019;

/// The execution seeds every family is run with.
const SEEDS: [u64; 3] = [11, 0x5ca1_ab1e, 0xd1ec_7f50_0000_0007];

fn dna_12mer(rng: &mut StdRng) -> String {
    const BASES: [char; 4] = ['A', 'C', 'G', 'T'];
    (0..12).map(|_| BASES[rng.gen_range(0..4usize)]).collect()
}

fn distinct_items(rng: &mut StdRng, space: usize, count: usize) -> Vec<usize> {
    let mut items = Vec::with_capacity(count);
    while items.len() < count {
        let item = rng.gen_range(0..space);
        if !items.contains(&item) {
            items.push(item);
        }
    }
    items
}

/// A ring plus `chords` distinct random chords.
fn ring_with_chords(rng: &mut StdRng, n: usize, chords: usize) -> Vec<(usize, usize)> {
    let mut edges: Vec<(usize, usize)> = (0..n).map(|v| (v, (v + 1) % n)).collect();
    while edges.len() < n + chords {
        let a = rng.gen_range(0..n);
        let b = rng.gen_range(0..n);
        if a != b && !edges.contains(&(a, b)) && !edges.contains(&(b, a)) {
            edges.push((a, b));
        }
    }
    edges
}

/// Dense linear terms and up to `n` random couplings.
fn qubo_spec(rng: &mut StdRng, n: usize) -> QuboSpec {
    let linear = (0..n).map(|v| (v, rng.gen_range(-1.0..1.0))).collect();
    let mut quadratic = Vec::with_capacity(n);
    for _ in 0..n {
        let i = rng.gen_range(0..n);
        let j = rng.gen_range(0..n);
        if i != j {
            quadratic.push((i, j, rng.gen_range(-1.0..1.0)));
        }
    }
    QuboSpec {
        n_vars: n,
        linear,
        quadratic,
    }
}

/// Seven families × three instances, at `device-mix` sizes: 12–18-qubit
/// order finding, 12-qubit Grover with 12 marked items, 12-mers at k = 3,
/// planted 3-SAT at 60–100 variables, 16-vertex rings with 0–2 chords,
/// 24-variable QUBOs; then, at `substrate-direct`'s sizes, two Grover
/// searches (13 qubits with 12 marked items, 14 with 9), a 48-variable
/// QUBO and planted 3-SAT at 300 variables.
fn corpus() -> Vec<(String, Kernel)> {
    let mut rng = rng_from_seed(POOL_SEED);
    let mut out = Vec::new();
    for (i, n) in [15u64, 21, 35].into_iter().enumerate() {
        out.push((format!("factor_{i}"), Kernel::Factor { n }));
    }
    for i in 0..3 {
        out.push((
            format!("search_{i}"),
            Kernel::Search {
                n_qubits: 12,
                marked: distinct_items(&mut rng, 1 << 12, 12),
            },
        ));
    }
    for i in 0..3 {
        out.push((
            format!("dna_{i}"),
            Kernel::DnaSimilarity {
                a: dna_12mer(&mut rng),
                b: dna_12mer(&mut rng),
                k: 3,
            },
        ));
    }
    for (i, n_vars) in [60usize, 80, 100].into_iter().enumerate() {
        let formula = planted_3sat(n_vars, 4.0, rng.gen::<u64>())
            .expect("planted 3-SAT generation cannot fail at these sizes")
            .formula;
        out.push((format!("sat_{i}"), Kernel::SolveSat { formula }));
    }
    for i in 0..3 {
        out.push((
            format!("compare_{i}"),
            Kernel::Compare {
                x: rng.gen_range(0.0..1.0),
                y: rng.gen_range(0.0..1.0),
            },
        ));
    }
    for chords in 0..3 {
        out.push((
            format!("coloring_{chords}"),
            Kernel::Family(FamilyKernel::Coloring(ColoringSpec {
                n_vertices: 16,
                n_colors: 3,
                edges: ring_with_chords(&mut rng, 16, chords),
            })),
        ));
    }
    for i in 0..3 {
        out.push((
            format!("qubo_{i}"),
            Kernel::Family(FamilyKernel::Qubo(qubo_spec(&mut rng, 24))),
        ));
    }
    // `substrate-direct`'s two Grover sizes, appended so that no row above
    // draws differently.
    for (i, (n_qubits, count)) in [(13usize, 12usize), (14, 9)].into_iter().enumerate() {
        out.push((
            format!("search_{}", i + 3),
            Kernel::Search {
                n_qubits,
                marked: distinct_items(&mut rng, 1 << n_qubits, count),
            },
        ));
    }
    // `substrate-direct`'s DMM sizes: a 48-variable QUBO and planted 3-SAT
    // at 300 variables, appended after the Grover rows for the same reason.
    out.push((
        "qubo_3".to_string(),
        Kernel::Family(FamilyKernel::Qubo(qubo_spec(&mut rng, 48))),
    ));
    let formula = planted_3sat(300, 4.0, rng.gen::<u64>())
        .expect("planted 3-SAT generation cannot fail at this size")
        .formula;
    out.push(("sat_3".to_string(), Kernel::SolveSat { formula }));
    out
}

/// A result as the pin table spells it: bit vectors as `0`/`1` strings,
/// everything else as its `Debug` form (which round-trips every `f64`).
fn render(result: &KernelResult) -> String {
    let bits =
        |bits: &[bool]| -> String { bits.iter().map(|&b| if b { '1' } else { '0' }).collect() };
    match result {
        KernelResult::SatSolution(Some(solution)) => format!("sat {}", bits(solution)),
        KernelResult::Family(FamilyResult::Qubo { bits: x, energy }) => {
            format!("qubo {} {energy:?}", bits(x))
        }
        other => format!("{other:?}"),
    }
}

/// One observed row: `(backend, result, operations, device-second bits)`.
fn observe(host: &mut HostRuntime, kernel: &Kernel, seed: u64) -> (String, String, u64, u64) {
    let request = DispatchRequest {
        reseed: Some(seed),
        ..DispatchRequest::default()
    };
    let report = host
        .dispatch_planned(kernel, &request)
        .expect("every corpus kernel has a specialized backend");
    (
        report.backend,
        render(&report.execution.result),
        report.execution.cost.operations,
        report.execution.cost.device_seconds.to_bits(),
    )
}

fn host() -> HostRuntime {
    let mut host = HostRuntime::new(DispatchPolicy::PreferSpecialized);
    for backend in standard_pool(POOL_SEED).expect("oscillator backend calibrates") {
        host.register(backend);
    }
    host
}

/// `(kernel, seed, backend, result, operations, device_seconds.to_bits())`;
/// kernel `family_i` runs with `SEEDS[i]`.
const PINS: &[(&str, u64, &str, &str, u64, u64)] = &[
    ("factor_0", 0xb, "quantum", "Factors(3, 5)", 52, 0x3ec172c417c771ef),
    ("factor_1", 0x5ca1ab1e, "quantum", "Factors(3, 7)", 75, 0x3ec92a737110e454),
    ("factor_2", 0xd1ec7f5000000007, "quantum", "Factors(7, 5)", 204, 0x3ee11cdddc3eafbe),
    ("search_0", 0xb, "quantum", "Found(1685)", 364, 0x3eee88d7299d0763),
    ("search_1", 0x5ca1ab1e, "quantum", "Found(2218)", 364, 0x3eee88d7299d0763),
    ("search_2", 0xd1ec7f5000000007, "quantum", "Found(593)", 364, 0x3eee88d7299d0763),
    ("dna_0", 0xb, "quantum", "Similarity(0.10400000000000009)", 9000, 0x3f40b630a91537a0),
    ("dna_1", 0x5ca1ab1e, "quantum", "Similarity(0.1160000000000001)", 9000, 0x3f40b630a91537a0),
    ("dna_2", 0xd1ec7f5000000007, "quantum", "Similarity(0.06400000000000006)", 9000, 0x3f40b630a91537a0),
    ("sat_0", 0xb, "memcomputing", "sat 111111001101111011010011101011111100001010100011100100010100", 275, 0x3e579f505f35670d),
    ("sat_1", 0x5ca1ab1e, "memcomputing", "sat 00010111111111000100000101001111100011100111001000100010111000110110110001010001", 25, 0x3e212e0be826d695),
    ("sat_2", 0xd1ec7f5000000007, "memcomputing", "sat 0100100100111000000011011111111011111010010001011011010011000110000110010111000010110001010111010101", 75, 0x3e39c511dc3a41e0),
    ("compare_0", 0xb, "oscillator", "Distance(0.0858785695179312)", 1, 0x3ebad7f29abcaf48),
    ("compare_1", 0x5ca1ab1e, "oscillator", "Distance(0.2149311026724029)", 1, 0x3ebad7f29abcaf48),
    ("compare_2", 0xd1ec7f5000000007, "oscillator", "Distance(0.19329244987485852)", 1, 0x3ebad7f29abcaf48),
    ("coloring_0", 0xb, "oscillator", "Family(Coloring { colors: [0, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1, 1, 2, 1, 2, 1], conflicts: 1 })", 32, 0x3ed77cf44765195f),
    ("coloring_1", 0x5ca1ab1e, "oscillator", "Family(Coloring { colors: [0, 1, 0, 1, 0, 1, 1, 2, 1, 2, 1, 1, 0, 1, 0, 1], conflicts: 3 })", 33, 0x3ed77cf44765195f),
    ("coloring_2", 0xd1ec7f5000000007, "oscillator", "Family(Coloring { colors: [0, 2, 0, 2, 0, 0, 0, 2, 0, 2, 1, 0, 0, 0, 1, 2], conflicts: 5 })", 34, 0x3ed77cf44765195f),
    ("qubo_0", 0xb, "memcomputing", "qubo 001101000111111100111111 -8.894944673492903", 5000, 0x3e9ad7f29abcaf49),
    ("qubo_1", 0x5ca1ab1e, "memcomputing", "qubo 100100011100011000110101 -5.186323336420741", 5000, 0x3e9ad7f29abcaf49),
    ("qubo_2", 0xd1ec7f5000000007, "memcomputing", "qubo 011001011010111011100010 -8.013813137168684", 5000, 0x3e9ad7f29abcaf49),
    ("search_3", 0xb, "quantum", "Found(5222)", 560, 0x3ef77cf447651960),
    ("search_4", 0x5ca1ab1e, "quantum", "Found(10519)", 990, 0x3f04c305a3adef92),
    ("qubo_3", 0xd1ec7f5000000007, "memcomputing", "qubo 011101010110111010010000010001100000111110110110 -10.818011929345367", 5000, 0x3e9ad7f29abcaf49),
    ("sat_3", 0xb, "memcomputing", "sat 101000000010000101111000001011111110001101101011011010010001000010111110110001111001000100101000011111100000010111101101110000010000101101010001111111100100110100111110101010001110111011000001110000100010000100010101100111101111110101110110000011010011100010000001101100110100011110000100111100110000", 250, 0x3e55798ee2308c3a),
];

#[test]
fn every_family_answers_exactly_as_pinned() {
    let mut host = host();
    let corpus = corpus();
    assert_eq!(corpus.len(), PINS.len(), "one pin per corpus kernel");
    for ((name, kernel), &(pin, seed, backend, result, operations, device_bits)) in
        corpus.iter().zip(PINS)
    {
        assert_eq!(name, pin, "corpus order changed");
        let seen = observe(&mut host, kernel, seed);
        assert_eq!(
            (seen.0.as_str(), seen.1.as_str(), seen.2, seen.3),
            (backend, result, operations, device_bits),
            "{name} at seed {seed:#x}"
        );
    }
}

/// Prints the pin table. Run only after an *intentional* change of a
/// simulator's model, then paste the output over the constant above.
#[test]
#[ignore = "generator, not a check"]
fn regenerate() {
    let mut host = host();
    println!("const PINS: &[(&str, u64, &str, &str, u64, u64)] = &[");
    for (i, (name, kernel)) in corpus().iter().enumerate() {
        let seed = SEEDS[i % SEEDS.len()];
        let (backend, result, operations, device_bits) = observe(&mut host, kernel, seed);
        println!(
            "    (\"{name}\", {seed:#x}, \"{backend}\", \"{}\", {operations}, {device_bits:#018x}),",
            result.escape_debug()
        );
    }
    println!("];");
}

//! Answer quality: how often each backend reaches the best answer known,
//! per family, at the sizes the benchmark serves.
//!
//! The other checks in the repo ask whether an answer is *consistent*
//! (the energy recomputes, the conflict count is right). This file asks
//! whether it is *good*. Each instance set is a fixed list of kernels
//! with a reference answer per kernel. Every backend of [`standard_pool`]
//! that serves the family runs the whole set the way a runtime worker
//! does: `dispatch_planned` with a per-job reseed. The number of answers
//! that reach the reference is pinned in [`ROWS`] as a literal. A change
//! that moves a count edits its literal on purpose and says why, like a
//! row of `substrate_pins`.
//!
//! The sets today are QUBOs in the benchmark generator's shape (dense
//! linear terms, `n` random couplings) at 24 variables (`device-mix`) and
//! at 48 (`substrate-direct`), and 3-colourings of 16-vertex rings with up
//! to three chords (`device-mix`'s colouring shape). Every colouring
//! graph is 3-colourable, so the reference answer is a proper colouring.
//! The QUBO references are literals as well, printed by the ignored
//! generator, which also checks the colouring graphs by backtracking:
//!
//! ```text
//! cargo test --release --test answer_quality regenerate_references -- --ignored --nocapture
//! ```
//!
//! At 24 variables the reference is the exact minimum (exhaustive search);
//! at 48 it is the best of 40 000 greedy descents from random starts, and
//! no backend may beat it. Another family joins by adding a set to
//! [`sets`] (its kernels and its hit test), a reference generator, and
//! one row per backend to [`ROWS`].
//!
//! Time budget: the file runs in about 3 s in the debug build that
//! `cargo test` uses, and fails past [`BUDGET`].

use accel::backends::standard_pool;
use accel::family::{ColoringSpec, FamilyKernel, FamilyResult, QuboSpec};
use accel::host::{DispatchPolicy, DispatchRequest, HostRuntime};
use accel::kernel::{Kernel, KernelResult};
use mem::qubo::Qubo;
use numerics::rng::{rng_from_seed, Rng, StdRng};
use std::time::{Duration, Instant};

const POOL_SEED: u64 = 2019;

/// Instances in each QUBO set.
const INSTANCES: usize = 48;

/// Graphs in the colouring set.
const COLORINGS: usize = 32;

/// Instance `k` of a set runs with the per-job seed `JOB_SEED + k`.
const JOB_SEED: u64 = 100;

/// Wall-clock ceiling for the whole check.
const BUDGET: Duration = Duration::from_secs(30);

/// `(set, backend, answers that reach the reference)`. Memcomputing is
/// the best of 20 polished 250-step DMM restarts; the CPU backend is one
/// greedy descent from a seeded random start on a QUBO and Welsh–Powell
/// greedy colouring on a graph. The oscillator backend reads colours off
/// the phases of the seeded phase-reduced oscillator model
/// (`osc::coloring`), one run per job; the circuit fabric it replaced
/// coloured 1 graph in 32.
const ROWS: &[(&str, &str, usize)] = &[
    ("qubo_24", "memcomputing", 48),
    ("qubo_24", "cpu", 25),
    ("qubo_48", "memcomputing", 47),
    ("qubo_48", "cpu", 7),
    ("coloring_16", "oscillator", 32),
    ("coloring_16", "cpu", 32),
];

/// Exact minima of the `qubo_24` set.
const QUBO_24_REFERENCE: [f64; INSTANCES] = [
    -8.41286999324668,
    -8.607429716702987,
    -5.343428900901674,
    -9.282965897619276,
    -10.847346047473996,
    -6.330386873042765,
    -14.219989504787328,
    -4.029471019831007,
    -5.936974025077733,
    -8.202621008102588,
    -6.5656351622180775,
    -5.636834904509795,
    -5.3095737536752825,
    -4.7768107946611735,
    -8.964780628545926,
    -8.952429786924597,
    -9.654579054502575,
    -7.941617149634224,
    -6.956679494602085,
    -9.72185395808588,
    -5.392122091465213,
    -7.085726243269907,
    -8.353023550840538,
    -7.225652746312873,
    -7.4728366833738615,
    -5.1482849615255954,
    -8.079630331079635,
    -10.475341260428438,
    -6.2439292579567525,
    -5.015488278780387,
    -5.876193270231882,
    -9.71419983489677,
    -8.08734603253771,
    -5.746459844362882,
    -8.417780730014497,
    -12.903733807141057,
    -10.486704549689737,
    -6.038502655878212,
    -3.0216840849791877,
    -7.751352519557588,
    -9.501798971769285,
    -6.712123684873113,
    -9.465474830414275,
    -6.7191383547074395,
    -8.86610664504934,
    -7.531158842135508,
    -11.709291117643131,
    -3.11704718522357,
];

/// Best of 40 000 greedy descents on each instance of the `qubo_48` set.
const QUBO_48_REFERENCE: [f64; INSTANCES] = [
    -10.865891534185382,
    -15.532364313419347,
    -15.073636319839999,
    -14.987758172176095,
    -19.928157447781924,
    -16.72281199032937,
    -15.117517054885921,
    -16.473515697090303,
    -18.398984514660626,
    -14.68089647789458,
    -11.636108369343823,
    -16.63117822753174,
    -17.804314217238165,
    -14.394658434811733,
    -17.161975734035543,
    -19.80030247941525,
    -15.416504373619842,
    -12.029613297872537,
    -15.977900583704502,
    -20.11508983932183,
    -16.646874859551218,
    -13.126837269181634,
    -12.795077958546484,
    -14.373183441941318,
    -16.18946465465157,
    -16.074773846859625,
    -12.224078032117637,
    -12.411179548759478,
    -14.652214425959121,
    -16.972805968610178,
    -14.368473420379688,
    -21.943896006017674,
    -15.377350231795557,
    -19.925396299981266,
    -18.88245374272775,
    -14.731037553381432,
    -15.939128899713381,
    -11.171342576572872,
    -19.93135242858664,
    -10.0492930286685,
    -19.26365542834722,
    -15.209135727051494,
    -15.49468957377212,
    -15.586306097605021,
    -12.569418630346853,
    -11.911282261093437,
    -15.271570146096968,
    -21.080982365362168,
];

/// Dense linear terms and up to `n` random couplings: the shape of the
/// benchmark generator's QUBOs.
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

/// `INSTANCES` QUBOs of `n` variables; instance `k` is drawn from
/// `rng_from_seed(first_seed + k)`.
fn qubo_specs(n: usize, first_seed: u64) -> Vec<QuboSpec> {
    (0..INSTANCES as u64)
        .map(|k| qubo_spec(&mut rng_from_seed(first_seed + k), n))
        .collect()
}

fn qubo(spec: &QuboSpec) -> Qubo {
    let mut q = Qubo::new(spec.n_vars).unwrap();
    for &(i, c) in &spec.linear {
        q.add_linear(i, c).unwrap();
    }
    for &(i, j, w) in &spec.quadratic {
        q.add_quadratic(i, j, w).unwrap();
    }
    q
}

/// Whether a QUBO answer reaches `reference`. An answer below it means
/// the reference is not the minimum, and fails the check.
fn qubo_hit(reference: f64, result: &KernelResult) -> bool {
    let KernelResult::Family(FamilyResult::Qubo { energy, .. }) = result else {
        panic!("not a QUBO answer: {result:?}");
    };
    assert!(
        *energy >= reference - 1e-9,
        "{energy} beats the reference {reference}: regenerate the references"
    );
    *energy <= reference + 1e-9
}

/// An `n`-ring plus up to three random chords: the shape of the benchmark
/// generator's colouring graphs.
fn ring_with_chords(rng: &mut StdRng, n: usize) -> Vec<(usize, usize)> {
    let mut edges: Vec<(usize, usize)> = (0..n).map(|v| (v, (v + 1) % n)).collect();
    for _ in 0..rng.gen_range(0..4usize) {
        let a = rng.gen_range(0..n);
        let b = rng.gen_range(0..n);
        if a != b && !edges.contains(&(a, b)) && !edges.contains(&(b, a)) {
            edges.push((a, b));
        }
    }
    edges
}

/// Graph `k` of the colouring set, drawn from `rng_from_seed(500 + k)`.
fn coloring_spec(k: usize) -> ColoringSpec {
    ColoringSpec {
        n_vertices: 16,
        n_colors: 3,
        edges: ring_with_chords(&mut rng_from_seed(500 + k as u64), 16),
    }
}

/// Whether a colouring of graph `k` is proper: no edge joins two
/// vertices of one colour. The reported conflict count must be the true
/// one either way.
fn coloring_hit(k: usize, result: &KernelResult) -> bool {
    let KernelResult::Family(FamilyResult::Coloring { colors, conflicts }) = result else {
        panic!("not a colouring answer: {result:?}");
    };
    let spec = coloring_spec(k);
    assert_eq!(colors.len(), spec.n_vertices, "graph {k}");
    assert!(colors.iter().all(|&c| c < spec.n_colors), "graph {k}");
    let monochromatic = spec
        .edges
        .iter()
        .filter(|&&(a, b)| colors[a] == colors[b])
        .count();
    assert_eq!(*conflicts, monochromatic as u64, "graph {k}");
    monochromatic == 0
}

/// Whether `spec` has a proper colouring, by backtracking over the
/// vertices in order.
fn colorable(spec: &ColoringSpec) -> bool {
    fn extend(spec: &ColoringSpec, colors: &mut Vec<usize>) -> bool {
        let v = colors.len();
        if v == spec.n_vertices {
            return true;
        }
        for c in 0..spec.n_colors {
            let clash = spec.edges.iter().any(|&(a, b)| {
                (a == v && b < v && colors[b] == c) || (b == v && a < v && colors[a] == c)
            });
            if !clash {
                colors.push(c);
                if extend(spec, colors) {
                    return true;
                }
                colors.pop();
            }
        }
        false
    }
    extend(spec, &mut Vec::new())
}

/// One instance set: its kernels and whether a result reaches the
/// reference of kernel `k`.
struct Set {
    name: &'static str,
    kernels: Vec<Kernel>,
    hit: fn(usize, &KernelResult) -> bool,
}

fn sets() -> Vec<Set> {
    let qubos = |specs: Vec<QuboSpec>| -> Vec<Kernel> {
        specs
            .into_iter()
            .map(|spec| Kernel::Family(FamilyKernel::Qubo(spec)))
            .collect()
    };
    vec![
        Set {
            name: "qubo_24",
            kernels: qubos(qubo_specs(24, 1000)),
            hit: |k, result| qubo_hit(QUBO_24_REFERENCE[k], result),
        },
        Set {
            name: "qubo_48",
            kernels: qubos(qubo_specs(48, 2000)),
            hit: |k, result| qubo_hit(QUBO_48_REFERENCE[k], result),
        },
        Set {
            name: "coloring_16",
            kernels: (0..COLORINGS)
                .map(|k| Kernel::Family(FamilyKernel::Coloring(coloring_spec(k))))
                .collect(),
            hit: coloring_hit,
        },
    ]
}

/// The policy that routes a family to `backend`: the CPU only under
/// `CpuOnly`, a specialized backend under `PreferSpecialized`.
fn policy_for(backend: &str) -> DispatchPolicy {
    if backend == "cpu" {
        DispatchPolicy::CpuOnly
    } else {
        DispatchPolicy::PreferSpecialized
    }
}

/// How many of `set`'s kernels `backend` answers at the reference.
fn hits(host: &mut HostRuntime, set: &Set, backend: &str) -> usize {
    let mut hits = 0;
    for (k, kernel) in set.kernels.iter().enumerate() {
        let request = DispatchRequest {
            policy: Some(policy_for(backend)),
            reseed: Some(JOB_SEED + k as u64),
            ..DispatchRequest::default()
        };
        let report = host.dispatch_planned(kernel, &request).unwrap();
        assert_eq!(report.backend, backend, "{} instance {k}", set.name);
        hits += usize::from((set.hit)(k, &report.execution.result));
    }
    hits
}

#[test]
fn every_backend_reaches_the_reference_as_often_as_pinned() {
    let started = Instant::now();
    let mut host = HostRuntime::new(DispatchPolicy::PreferSpecialized);
    for backend in standard_pool(POOL_SEED).unwrap() {
        host.register(backend);
    }
    let sets = sets();
    let seen: Vec<(&str, &str, usize)> = ROWS
        .iter()
        .map(|&(name, backend, _)| {
            let set = sets.iter().find(|s| s.name == name).unwrap();
            (name, backend, hits(&mut host, set, backend))
        })
        .collect();
    assert_eq!(seen, ROWS);
    let elapsed = started.elapsed();
    assert!(elapsed < BUDGET, "{elapsed:?} over the {BUDGET:?} budget");
}

/// Prints the reference tables, and checks that every colouring graph
/// has a proper colouring. Run only when an instance set changes, then
/// paste the output over the constants above.
#[test]
#[ignore = "generator, not a check"]
fn regenerate_references() {
    for k in 0..COLORINGS {
        assert!(colorable(&coloring_spec(k)), "colouring graph {k}");
    }
    println!("all {COLORINGS} colouring graphs are 3-colourable");
    let print = |name: &str, values: Vec<f64>| {
        println!("const {name}: [f64; INSTANCES] = [");
        for value in values {
            println!("    {value:?},");
        }
        println!("];");
    };
    let exact = qubo_specs(24, 1000)
        .iter()
        .map(|spec| qubo(spec).minimize_exhaustive().unwrap().1)
        .collect();
    print("QUBO_24_REFERENCE", exact);
    let descents = qubo_specs(48, 2000)
        .iter()
        .enumerate()
        .map(|(k, spec)| {
            let q = qubo(spec);
            let mut rng = rng_from_seed(9000 + k as u64);
            (0..40_000)
                .map(|_| {
                    let start: Vec<bool> = (0..spec.n_vars).map(|_| rng.gen_bool(0.5)).collect();
                    q.minimize_greedy(&start).1
                })
                .fold(f64::INFINITY, f64::min)
        })
        .collect();
    print("QUBO_48_REFERENCE", descents);
}

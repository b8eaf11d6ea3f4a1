//! Input generation. Everything the program under test receives — kernels
//! and per-job seeds — is made here, up front, from `--seed`.
//!
//! A serving workload is a `pool` of kernels plus a list of `slots`
//! (submissions) that index into it, so the three serving workloads share
//! one representation: `device-mix` has one slot per pool entry,
//! `stack-bound` cycles a fixed pool with fresh seeds, `dup-cluster`
//! repeats recent pool entries with their original seeds.

use accel::family::{ColoringSpec, FamilyKernel, QuboSpec};
use accel::kernel::Kernel;
use mem::cnf::Formula;
use mem::generators::planted_3sat;
use numerics::rng::{rng_from_seed, shuffle, Rng, SeedStream, StdRng};

/// Family names in the order used for every per-family index.
pub const FAMILIES: [&str; 7] = [
    "factor", "search", "dna", "sat", "compare", "coloring", "qubo",
];

/// How many jobs of each family one 32-job block of the device mix holds
/// (indexed like [`FAMILIES`]). Stratified rather than drawn, so family
/// shares are exact in every block and do not wander between seeds.
pub const BLOCK_COUNTS: [usize; 7] = [2, 6, 1, 5, 4, 6, 8];
pub const BLOCK: usize = 32;

/// The semiprimes factor jobs cycle through. `n = 77` is left out: its
/// order-finding register is 21 qubits and one job runs 0.9–4.7 s, so a
/// 20-second window either misses it or is bent by it (see the README).
const SEMIPRIMES: [u64; 5] = [15, 21, 33, 35, 55];
/// `dup-cluster` keeps to the two cheapest, so that its slowest misses are
/// the 22 ms colourings that make up a fifth of them and not a 300 ms
/// factoring that comes once in 160 misses and would own the p95 alone.
const SMALL_SEMIPRIMES: [u64; 2] = [15, 21];

/// Factor has a handful of distinct inputs; what a factor job costs is decided by
/// its execution seed (Shor's random base and measurement). The k-th
/// factor job of a run therefore always carries the k-th seed of this
/// fixed stream — `--seed` only decides where in the run it sits — so the
/// spread between seeds is not the luck of a few multi-second draws.
const FACTOR_SEED_STREAM: u64 = 0x5ca1_ab1e_0fac_7075;

/// `dup-cluster`: each slot is a brand-new job with this probability …
pub const NEW_JOB_PROBABILITY: f64 = 0.1;
/// … and otherwise a uniform repeat from this many most recent uniques
/// (1.5× one shard's 256-entry cache, 0.75× the two shards' aggregate).
pub const WORKING_SET: usize = 384;

/// `stack-bound`: the kernel pool cycled with fresh seeds.
pub const STACK_POOL: usize = 16_384;

/// Marked-set sizes at which Grover's optimal iteration count lands within
/// 1e-6 of certainty, so a search job cannot come back with an unmarked
/// item (a miss would count as a failed job). `(n_qubits, marked)`.
pub const SEARCH_SERVING: (usize, usize) = (12, 12);
pub const SEARCH_SMALL: (usize, usize) = (10, 3);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slot {
    /// Index into [`Inputs::pool`].
    pub kernel: u32,
    /// The job's explicit execution seed.
    pub seed: u64,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Inputs {
    pub pool: Vec<Kernel>,
    /// Family index (into [`FAMILIES`]) per pool entry.
    pub family: Vec<u8>,
    pub slots: Vec<Slot>,
}

/// Instance sizes of one serving mix.
#[derive(Debug, Clone, Copy)]
struct Sizes {
    semiprimes: &'static [u64],
    search: (usize, usize),
    dna_k: usize,
    sat_vars: (usize, usize),
    sat_ratio: f64,
    coloring_vertices: usize,
    qubo_vars: usize,
}

/// Sizes at which the three simulators each hold 20–50 % of busy time.
const DEVICE_SIZES: Sizes = Sizes {
    semiprimes: &SEMIPRIMES,
    search: SEARCH_SERVING,
    dna_k: 3,
    sat_vars: (60, 100),
    sat_ratio: 4.0,
    coloring_vertices: 16,
    qubo_vars: 24,
};

/// Same families, smaller instances: `dup-cluster` recomputes only one job
/// in ten, and its warm-up pass over the working set is paid in every run.
const DUP_SIZES: Sizes = Sizes {
    semiprimes: &SMALL_SEMIPRIMES,
    search: SEARCH_SMALL,
    dna_k: 2,
    sat_vars: (40, 60),
    sat_ratio: 4.0,
    coloring_vertices: 8,
    qubo_vars: 8,
};

/// Kernels small enough that backend work is microseconds on the CPU.
const STACK_SIZES: Sizes = Sizes {
    semiprimes: &SEMIPRIMES,
    search: (8, 1),
    dna_k: 2,
    sat_vars: (12, 12),
    sat_ratio: 3.8,
    coloring_vertices: 8,
    qubo_vars: 8,
};

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

pub fn sat_formula(rng: &mut StdRng, vars: (usize, usize), ratio: f64) -> Formula {
    let n = rng.gen_range(vars.0..=vars.1);
    planted_3sat(n, ratio, rng.gen::<u64>())
        .expect("planted 3-SAT generation cannot fail at these sizes")
        .formula
}

/// A ring plus up to three random chords: connected, and sometimes
/// frustrated under three colours. No edge appears twice — admission
/// dedups edges, and a conflict count over a multigraph would not match
/// the one the server reports over the canonical graph.
pub fn ring_with_chords(rng: &mut StdRng, n: usize) -> Vec<(usize, usize)> {
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

/// Dense linear terms and `n` random couplings.
pub fn qubo_spec(rng: &mut StdRng, n: usize) -> QuboSpec {
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

/// One kernel of `family`. `factor_rank` is the job's rank among the
/// run's factor jobs (it picks the semiprime; other families ignore it).
fn kernel(family: usize, sizes: &Sizes, rng: &mut StdRng, factor_rank: usize) -> Kernel {
    match family {
        0 => Kernel::Factor {
            n: sizes.semiprimes[factor_rank % sizes.semiprimes.len()],
        },
        1 => Kernel::Search {
            n_qubits: sizes.search.0,
            marked: distinct_items(rng, 1 << sizes.search.0, sizes.search.1),
        },
        2 => Kernel::DnaSimilarity {
            a: dna_12mer(rng),
            b: dna_12mer(rng),
            k: sizes.dna_k,
        },
        3 => Kernel::SolveSat {
            formula: sat_formula(rng, sizes.sat_vars, sizes.sat_ratio),
        },
        4 => Kernel::Compare {
            x: rng.gen_range(0.0..1.0),
            y: rng.gen_range(0.0..1.0),
        },
        5 => Kernel::Family(FamilyKernel::Coloring(ColoringSpec {
            n_vertices: sizes.coloring_vertices,
            n_colors: 3,
            edges: ring_with_chords(rng, sizes.coloring_vertices),
        })),
        _ => Kernel::Family(FamilyKernel::Qubo(qubo_spec(rng, sizes.qubo_vars))),
    }
}

/// `count` unique jobs in stratified 32-job blocks, each block shuffled.
/// Returns the kernels, their family indices, and their execution seeds.
fn stratified(count: usize, seed: u64, sizes: &Sizes) -> (Vec<Kernel>, Vec<u8>, Vec<u64>) {
    let mut rng = rng_from_seed(seed);
    let mut job_seeds = SeedStream::new(seed ^ 0xa076_1d64_78bd_642f);
    let mut factor_seeds = SeedStream::new(FACTOR_SEED_STREAM);
    let mut factor_rank = 0;
    let mut order: Vec<u8> = BLOCK_COUNTS
        .iter()
        .enumerate()
        .flat_map(|(family, &n)| std::iter::repeat_n(family as u8, n))
        .collect();
    let mut pool = Vec::with_capacity(count);
    let mut family = Vec::with_capacity(count);
    let mut seeds = Vec::with_capacity(count);
    while pool.len() < count {
        shuffle(&mut rng, &mut order);
        for &f in order.iter().take(count - pool.len()) {
            pool.push(kernel(f as usize, sizes, &mut rng, factor_rank));
            family.push(f);
            let job_seed = job_seeds.next_seed();
            if f == 0 {
                factor_rank += 1;
                seeds.push(factor_seeds.next_seed());
            } else {
                seeds.push(job_seed);
            }
        }
    }
    (pool, family, seeds)
}

/// `device-mix`: every `(kernel, seed)` is unique.
pub fn device_mix(jobs: usize, seed: u64) -> Inputs {
    let (pool, family, seeds) = stratified(jobs, seed, &DEVICE_SIZES);
    let slots = seeds
        .iter()
        .enumerate()
        .map(|(i, &seed)| Slot {
            kernel: i as u32,
            seed,
        })
        .collect();
    Inputs {
        pool,
        family,
        slots,
    }
}

/// `stack-bound`: a fixed pool cycled with fresh seeds, so every
/// submission misses the admission cache, inserts, and evicts.
pub fn stack_bound(jobs: usize, seed: u64) -> Inputs {
    let mut rng = rng_from_seed(seed);
    let mut pool = Vec::with_capacity(STACK_POOL);
    let mut family = Vec::with_capacity(STACK_POOL);
    for i in 0..STACK_POOL {
        let f = i % FAMILIES.len();
        pool.push(kernel(f, &STACK_SIZES, &mut rng, i / FAMILIES.len()));
        family.push(f as u8);
    }
    let mut job_seeds = SeedStream::new(seed ^ 0xa076_1d64_78bd_642f);
    let slots = (0..jobs)
        .map(|i| Slot {
            kernel: (i % STACK_POOL) as u32,
            seed: job_seeds.next_seed(),
        })
        .collect();
    Inputs {
        pool,
        family,
        slots,
    }
}

/// `dup-cluster`: the first [`WORKING_SET`] slots are the warm-up pass (one
/// submission of each initial unique); after that each slot is new with
/// probability [`NEW_JOB_PROBABILITY`], else a uniform repeat — same
/// kernel, same seed — of one of the [`WORKING_SET`] most recent uniques.
pub fn dup_cluster(jobs: usize, seed: u64) -> Inputs {
    let mut rng = rng_from_seed(seed ^ 0x6475_702d_636c_7573);
    let mut picks = Vec::with_capacity(jobs);
    let mut uniques = 0u32;
    for i in 0..jobs {
        if i < WORKING_SET || rng.gen_bool(NEW_JOB_PROBABILITY) {
            picks.push(uniques);
            uniques += 1;
        } else {
            let oldest = uniques - (WORKING_SET as u32).min(uniques);
            picks.push(rng.gen_range(oldest..uniques));
        }
    }
    let (pool, family, seeds) = stratified(uniques as usize, seed, &DUP_SIZES);
    let slots = picks
        .into_iter()
        .map(|kernel| Slot {
            kernel,
            seed: seeds[kernel as usize],
        })
        .collect();
    Inputs {
        pool,
        family,
        slots,
    }
}

/// One `substrate-direct` call: a library entry point and its instance.
#[derive(Debug, Clone, PartialEq)]
pub enum DirectCall {
    Grover { n_qubits: usize, marked: Vec<usize> },
    Shor { n: u64 },
    ColorRing { n: usize },
    Dmm { formula: Formula },
    Qubo { spec: QuboSpec },
}

impl DirectCall {
    /// Index into [`DIRECT_ENTRIES`].
    pub fn entry(&self) -> usize {
        match self {
            DirectCall::Grover { .. } => 0,
            DirectCall::Shor { .. } => 1,
            DirectCall::ColorRing { .. } => 2,
            DirectCall::Dmm { .. } => 3,
            DirectCall::Qubo { .. } => 4,
        }
    }
}

pub const DIRECT_ENTRIES: [&str; 5] = ["grover", "shor", "color_graph", "dmm", "qubo"];

/// Calls per round of the direct workload.
pub const DIRECT_ROUND: usize = 10;

/// `substrate-direct`: round-robin over the library entry points at sizes
/// above what the serving mixes use. Instances come from `seed`; the RNG
/// seed each call runs with is fixed by its position (see `direct.rs`).
///
/// The round is laid out so that the percentiles reported fall inside a
/// run of equal calls and not between two kinds of call: sorted by cost,
/// the four cheap calls are the lower 40 %, the two 16-rings (the same
/// deterministic simulation every time) span 40–60 % and hold the median,
/// and the two Shor calls are the top 20 % and hold the p95.
pub fn substrate_direct(calls: usize, seed: u64) -> Vec<DirectCall> {
    let mut rng = rng_from_seed(seed ^ 0x6469_7265_6374_2121);
    (0..calls)
        .map(|i| {
            let odd_round = (i / DIRECT_ROUND) % 2 == 1;
            match i % DIRECT_ROUND {
                0 => DirectCall::Grover {
                    n_qubits: 13,
                    marked: distinct_items(&mut rng, 1 << 13, 12),
                },
                1 => DirectCall::Shor { n: 35 },
                2 | 7 => DirectCall::ColorRing { n: 16 },
                3 => DirectCall::Dmm {
                    formula: sat_formula(&mut rng, (100, 100), 4.0),
                },
                4 => DirectCall::Qubo {
                    spec: qubo_spec(&mut rng, 48),
                },
                5 => DirectCall::Grover {
                    n_qubits: 14,
                    marked: distinct_items(&mut rng, 1 << 14, 9),
                },
                6 => DirectCall::Shor { n: 55 },
                8 => DirectCall::Dmm {
                    formula: if odd_round {
                        sat_formula(&mut rng, (300, 300), 4.0)
                    } else {
                        sat_formula(&mut rng, (200, 200), 4.0)
                    },
                },
                _ => DirectCall::ColorRing {
                    n: if odd_round { 32 } else { 24 },
                },
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn family_counts(inputs: &Inputs) -> [usize; 7] {
        let mut counts = [0; 7];
        for slot in &inputs.slots {
            counts[inputs.family[slot.kernel as usize] as usize] += 1;
        }
        counts
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        assert_eq!(device_mix(256, 7), device_mix(256, 7));
        assert_ne!(device_mix(256, 7), device_mix(256, 8));
        assert_eq!(stack_bound(40_000, 7), stack_bound(40_000, 7));
        assert_ne!(stack_bound(40_000, 7), stack_bound(40_000, 8));
        assert_eq!(dup_cluster(4_000, 7), dup_cluster(4_000, 7));
        assert_ne!(dup_cluster(4_000, 7), dup_cluster(4_000, 8));
        assert_eq!(substrate_direct(40, 7), substrate_direct(40, 7));
        assert_ne!(substrate_direct(40, 7), substrate_direct(40, 8));
    }

    #[test]
    fn every_kernel_validates() {
        for inputs in [
            device_mix(512, 11),
            stack_bound(100, 11),
            dup_cluster(4_000, 11),
        ] {
            for kernel in &inputs.pool {
                kernel.validate().unwrap();
            }
        }
    }

    #[test]
    fn device_mix_family_shares_are_exact_per_block() {
        let inputs = device_mix(BLOCK * 40, 3);
        let counts = family_counts(&inputs);
        for (family, &count) in counts.iter().enumerate() {
            assert_eq!(count, BLOCK_COUNTS[family] * 40, "{}", FAMILIES[family]);
        }
        // Factor is 1/16 of all jobs.
        assert_eq!(counts[0] * 16, inputs.slots.len());
    }

    #[test]
    fn factor_jobs_are_the_same_under_every_seed() {
        let factor_jobs = |inputs: &Inputs| -> Vec<(u64, u64)> {
            inputs
                .slots
                .iter()
                .filter_map(|s| match inputs.pool[s.kernel as usize] {
                    Kernel::Factor { n } => Some((n, s.seed)),
                    _ => None,
                })
                .collect()
        };
        let a = factor_jobs(&device_mix(BLOCK * 64, 3));
        assert_eq!(a.len(), 128);
        assert!(a.iter().all(|&(n, _)| n != 77), "n = 77 stays out");
        // The k-th factor job is the same (n, seed) whatever --seed is.
        assert_eq!(a, factor_jobs(&device_mix(BLOCK * 64, 4)));
    }

    #[test]
    fn device_mix_jobs_are_unique() {
        let inputs = device_mix(2_048, 5);
        let distinct: BTreeSet<String> = inputs
            .slots
            .iter()
            .map(|s| format!("{:?}/{}", inputs.pool[s.kernel as usize], s.seed))
            .collect();
        assert_eq!(distinct.len(), inputs.slots.len());
    }

    #[test]
    fn stack_bound_cycles_the_pool_with_fresh_seeds() {
        let jobs = STACK_POOL * 2 + 5;
        let inputs = stack_bound(jobs, 9);
        assert_eq!(inputs.pool.len(), STACK_POOL);
        assert_eq!(inputs.slots[STACK_POOL + 3].kernel, 3);
        let seeds: BTreeSet<u64> = inputs.slots.iter().map(|s| s.seed).collect();
        assert_eq!(seeds.len(), jobs);
        let counts = family_counts(&inputs);
        assert!(counts
            .iter()
            .all(|&c| c.abs_diff(jobs / 7) <= STACK_POOL / 7));
    }

    #[test]
    fn dup_cluster_working_set_and_repeat_probability() {
        let jobs = WORKING_SET + 50_000;
        let inputs = dup_cluster(jobs, 13);
        // Warm-up pass: the first WORKING_SET slots are the first uniques.
        for (i, slot) in inputs.slots[..WORKING_SET].iter().enumerate() {
            assert_eq!(slot.kernel as usize, i);
        }
        let mut newest = WORKING_SET as u32 - 1;
        let mut repeats = 0usize;
        for slot in &inputs.slots[WORKING_SET..] {
            if slot.kernel == newest + 1 {
                newest += 1;
            } else {
                repeats += 1;
                assert!(slot.kernel <= newest, "a repeat names an existing unique");
                assert!(
                    newest - slot.kernel < WORKING_SET as u32,
                    "a repeat comes from the {WORKING_SET} most recent uniques"
                );
            }
        }
        let share = repeats as f64 / 50_000.0;
        assert!((share - 0.9).abs() < 0.01, "repeat share {share}");
        // A repeat keeps its original's seed, so it is the same job.
        let first = inputs.slots.iter().position(|s| s.kernel == 100).unwrap();
        for slot in inputs.slots.iter().filter(|s| s.kernel == 100) {
            assert_eq!(slot.seed, inputs.slots[first].seed);
        }
    }

    #[test]
    fn direct_round_covers_every_entry_point() {
        let calls = substrate_direct(DIRECT_ROUND, 1);
        let entries: BTreeSet<usize> = calls.iter().map(DirectCall::entry).collect();
        assert_eq!(entries.len(), DIRECT_ENTRIES.len());
    }
}

//! Allocation budgets for the substrate inner loops and the serving
//! event loop's readiness wait.
//!
//! What the inner-loop rework removed was mostly allocation and
//! repetition, and both can be counted exactly. This binary installs a
//! counting global allocator (it forwards to [`System`]; the one `unsafe
//! impl` in the repository lives here, in a test binary) and holds each
//! simulator entry point to a budget in allocations and bytes. Only the
//! Grover budget also looks at a clock, and every one of them fails on
//! the loops as they were: four vectors per RK4 step and a state clone
//! per sample, one circuit simulation per swap-test shot, a full-width
//! permutation per modular multiplication, fresh assignments at every
//! checkpoint, a 2ⁿ state per Grover search. The event loop's `Poll::poll` keeps its `pollfd` array across calls, so a
//! steady-state poll allocates nothing at all, and neither frame reader
//! nor the stats decoder allocates for a length it refuses. Every wire
//! decoder is held to 4 KiB per decode on truncated and count-forged
//! frames of every kernel family. Admission keys a SAT submission, routes
//! it and serves it from the cache in an allocation count that does not
//! grow with its clauses, and a SAT decode allocates once per clause.
//!
//! Each `#[test]` holds [`serial`] throughout, so nothing else in the
//! process allocates while a measurement is armed.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use accel::accelerator::Accelerator;
use accel::backends::QuantumBackend;
use accel::family::{
    canonical_key, family_of, family_of_result, ColoringSpec, FamilyKernel, FamilyResult, QuboSpec,
    FAMILIES, MAX_SAT_VARS,
};
use accel::host::DispatchPolicy;
use accel::kernel::{Kernel, KernelResult};
use server::poll::{Event, Poll};

use mem::cnf::{Clause, Formula, Literal};
use mem::dmm::{DmmParams, DmmSolver};
use mem::generators::planted_3sat;
use mem::maxsat::{MaxSatDmm, MaxSatDmmParams, WeightedFormula};
use mem::qubo::Qubo;
use numerics::rng::{rng_from_seed, Rng};
use osc::coloring::{color_graph, ColoringConfig};
use quantum::{dna, shor, swap_test};
use runtime::stats::{BackendThroughput, LatencyHistogram, LATENCY_BUCKETS};
use runtime::{JobOptions, JobOutcome, Runtime, RuntimeConfig, RuntimeStats};
use wire::{
    decode_kernel, decode_kernel_result, decode_request, decode_response, encode_kernel,
    encode_kernel_result, encode_request, encode_response, read_frame, FrameBuffer, Request,
    Response, WireError, MAGIC, MAX_FRAME_LEN, MAX_SEQUENCE_LEN,
};

struct Counting;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);
static BYTES: AtomicUsize = AtomicUsize::new(0);
static LARGEST: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters are atomics and allocate nothing.
// `realloc` and `alloc_zeroed` keep their default bodies, which go through
// `alloc` and are counted there.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(layout.size(), Ordering::Relaxed);
            LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        }
        // SAFETY: `layout` is the caller's, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Serializes the tests of this binary: the counters are process-wide.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

#[derive(Debug, Clone, Copy)]
struct Spent {
    allocations: usize,
    bytes: usize,
    largest: usize,
}

/// Runs `work` with the counters armed; returns its value and what it
/// allocated (a `realloc` counts as one more allocation of the new size).
fn measure<T>(work: impl FnOnce() -> T) -> (T, Spent) {
    for counter in [&ALLOCATIONS, &BYTES, &LARGEST] {
        counter.store(0, Ordering::Relaxed);
    }
    ARMED.store(true, Ordering::SeqCst);
    let value = work();
    ARMED.store(false, Ordering::SeqCst);
    let spent = Spent {
        allocations: ALLOCATIONS.load(Ordering::Relaxed),
        bytes: BYTES.load(Ordering::Relaxed),
        largest: LARGEST.load(Ordering::Relaxed),
    };
    (value, spent)
}

#[test]
fn the_inner_loops_stay_inside_their_allocation_budgets() {
    let _serial = serial();
    // Oscillators: 40 000 RK4 steps of a 16-ring. The stepper's stage
    // buffers, one row buffer, sixteen waveforms, and the readout.
    let edges: Vec<(usize, usize)> = (0..16).map(|v| (v, (v + 1) % 16)).collect();
    let config = ColoringConfig {
        n_colors: 3,
        ..ColoringConfig::default()
    };
    let (coloring, spent) = measure(|| color_graph(16, &edges, &config).unwrap());
    assert_eq!(coloring.colors.len(), 16);
    assert!(spent.allocations < 1_000, "color_graph: {spent:?}");

    // Swap test: one 13-qubit circuit simulation, then 500 draws.
    let a = dna::kmer_state("ACGTACGTACGT", 3).unwrap();
    let b = dna::kmer_state("ACGTTCGAACGT", 3).unwrap();
    let (estimate, spent) =
        measure(|| swap_test::estimate_overlap_sq(&a, &b, 500, &mut rng_from_seed(3)).unwrap());
    assert!((0.0..=1.0).contains(&estimate));
    assert!(spent.allocations < 100, "estimate_overlap_sq: {spent:?}");
    // The 13-qubit state and the two tensor products on the way to it.
    assert!(
        spent.bytes < 4 * (16 << 13),
        "estimate_overlap_sq: {spent:?}"
    );

    // Order finding mod 35 on 18 qubits, whose state would be 4 MB: one
    // control qubit is recycled for all 12 counting qubits, so the state is
    // the 6-qubit work register (64 amplitudes, 1 KB) and the control's
    // other branch beside it. Nothing is allocated per counting qubit; the
    // continued fractions grow one short list of convergents (two
    // allocations, 192 bytes).
    let work_bytes = 16usize << 6;
    let (run, spent) = measure(|| shor::order_finding(2, 35, &mut rng_from_seed(3)).unwrap());
    assert_eq!(run.counting_bits, 12);
    assert!(spent.allocations <= 4, "order_finding: {spent:?}");
    assert!(spent.largest <= work_bytes, "order_finding: {spent:?}");
    assert!(
        spent.bytes < 2 * work_bytes + 512,
        "order_finding: {spent:?}"
    );
    // The widest register order finding admits: 4095 needs 12 work
    // qubits and gets 12 counting qubits, a 24-qubit register whose state
    // would be 256 MB. The simulated state is two 12-qubit work vectors
    // of 64 KB.
    let (run, spent) = measure(|| shor::order_finding(4094, 4095, &mut rng_from_seed(3)).unwrap());
    assert_eq!(run.counting_bits + 12, quantum::MAX_QUBITS);
    assert!(
        spent.bytes < 2 * (16 << 12) + 512,
        "order_finding mod 4095: {spent:?}"
    );

    // Grover at the widest register validation admits: two amplitudes, not
    // 2^24 of them (256 MB), however wide the register. The one bound here
    // on a clock: about 3 200 iterations that once swept all 2^24
    // amplitudes each, an hour of work, now take microseconds.
    let mut backend = QuantumBackend::new(1);
    let search = Kernel::Search {
        n_qubits: quantum::MAX_QUBITS,
        marked: vec![1],
    };
    let started = std::time::Instant::now();
    let (run, spent) = measure(|| backend.execute(&search).unwrap());
    let elapsed = started.elapsed();
    assert!(matches!(run.result, KernelResult::Found(_)));
    assert!(spent.largest < 1 << 20, "Search at 24 qubits: {spent:?}");
    assert!(
        elapsed < Duration::from_secs(1),
        "Search at 24 qubits: {elapsed:?}"
    );

    // A formula no trajectory can satisfy: planted 3-SAT plus two unit
    // clauses that contradict each other.
    let mut clauses = planted_3sat(60, 4.2, 9).unwrap().formula.clauses().to_vec();
    for literal in [Literal::positive(0), Literal::negative(0)] {
        clauses.push(Clause::new(vec![literal]).unwrap());
    }
    let formula = Formula::new(60, clauses).unwrap();

    // DMM: 5 000 steps, 200 checkpoints. One clone per kept checkpoint,
    // nothing per step.
    let params = DmmParams {
        max_steps: 5_000,
        check_every: 25,
        ..DmmParams::default()
    };
    let (outcome, spent) = measure(|| DmmSolver::new(params).solve(&formula, 1).unwrap());
    assert_eq!(outcome.steps, params.max_steps);
    let checkpoints = outcome.checkpoints.len();
    assert!(checkpoints > 200);
    assert!(
        spent.allocations <= checkpoints + 32,
        "DmmSolver::solve: {checkpoints} checkpoints, {spent:?}"
    );

    // MaxSAT: a 30 000-step budget, 1 200 checks. An improvement is
    // swapped into the best assignment, not cloned, so the count depends
    // on neither.
    let wf = WeightedFormula::uniform(formula);
    let mut params = MaxSatDmmParams::default();
    params.dynamics.max_steps = 30_000;
    let (outcome, spent) = measure(|| MaxSatDmm::new(params).solve(&wf, 5).unwrap());
    assert_eq!(outcome.work, 30_000);
    assert!(spent.allocations < 32, "MaxSatDmm::solve: {spent:?}");

    // QUBO: restarts × steps. Each restart pays one trajectory's setup and
    // its polish; the count grows with the restarts and not with the steps.
    let mut qubo = Qubo::new(24).unwrap();
    let mut rng = rng_from_seed(11);
    for i in 0..24 {
        qubo.add_linear(i, rng.gen_range(-1.0..1.0)).unwrap();
        qubo.add_quadratic(i, (i + 7) % 24, rng.gen_range(-1.0..1.0))
            .unwrap();
    }
    let qubo_allocations = |restarts: u32, max_steps: u64| {
        let params = MaxSatDmmParams {
            dynamics: DmmParams {
                max_steps,
                ..MaxSatDmmParams::default().dynamics
            },
            restarts,
        };
        let (found, spent) = measure(|| qubo.minimize_dmm_counted(params, 3).unwrap());
        assert_eq!(found.steps, u64::from(restarts) * max_steps);
        spent.allocations
    };
    let one = qubo_allocations(1, 500);
    let per_restart = qubo_allocations(2, 500) - one;
    assert!(
        per_restart < 40,
        "one QUBO restart: {per_restart} allocations"
    );
    for (restarts, max_steps) in [(1, 5_000), (10, 500), (10, 5_000)] {
        assert_eq!(
            qubo_allocations(restarts, max_steps),
            one + (restarts as usize - 1) * per_restart,
            "minimize_dmm_counted: {restarts} × {max_steps}"
        );
    }

    // Event loop: 1 000 polls over two registered streams, one with
    // unread bytes (level-triggered: readable every time) and one idle.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let mut writers = Vec::new();
    let mut poll = Poll::new().unwrap();
    for _ in 0..2 {
        writers.push(TcpStream::connect(addr).unwrap());
        poll.register_stream(listener.accept().unwrap().0).unwrap();
    }
    writers[0].write_all(b"unread").unwrap();
    let mut events: Vec<Event> = Vec::new();
    let timeout = Some(Duration::from_secs(5));
    poll.poll(&mut events, timeout).unwrap(); // sizes the reused buffers
    let (readable, spent) = measure(|| {
        (0..1_000)
            .map(|_| {
                events.clear();
                poll.poll(&mut events, timeout).unwrap()
            })
            .sum::<usize>()
    });
    assert_eq!(readable, 1_000);
    assert_eq!(spent.allocations, 0, "Poll::poll: {spent:?}");

    // Hostile frame headers: both readers refuse them before allocating
    // anything the announced length would size.
    let too_large = |len: u32| [MAGIC, len.to_be_bytes()].concat();
    for header in [
        too_large(MAX_FRAME_LEN + 1),
        too_large(u32::MAX),
        b"HTTP".repeat(2),
    ] {
        let (_, spent) = measure(|| read_frame(&mut header.as_slice()).unwrap_err());
        assert!(spent.largest < 1024, "read_frame: {spent:?}");
        let mut buffer = FrameBuffer::new();
        let (_, spent) = measure(|| {
            buffer
                .fill_from(&mut header.as_slice())
                .map(|_| buffer.next_frame())
        });
        assert!(spent.largest < 1024, "FrameBuffer: {spent:?}");
    }

    // Hostile stats rows: an entry count, and a histogram length, each at
    // its cap with nothing behind it, are refused before anything is sized
    // by them.
    let cap = MAX_SEQUENCE_LEN.to_be_bytes();
    let stats = |row: &[&[u8]]| [&[0x85][..], &[0; 8], &row.concat()].concat();
    // One entry: a 7-byte name, the histogram kind, then its bound count.
    let latency_histogram: &[&[u8]] = &[&[0, 0, 0, 1, 0, 0, 0, 7], b"latency", &[2], &cap];
    for frame in [stats(&[&cap]), stats(latency_histogram)] {
        let (_, spent) = measure(|| decode_response(&frame).unwrap_err());
        assert!(spent.largest < 1024, "decode_response: {spent:?}");
    }
}

/// One kernel and one result of the family named `name`; `None` for a
/// family that has none yet, which fails the hostile-frame test.
fn family_sample(name: &str) -> Option<(Kernel, KernelResult)> {
    let formula = Formula::new(
        3,
        vec![
            Clause::new(vec![Literal::positive(0), Literal::negative(1)]).unwrap(),
            Clause::new(vec![Literal::positive(1), Literal::positive(2)]).unwrap(),
        ],
    )
    .unwrap();
    Some(match name {
        "factor" => (Kernel::Factor { n: 35 }, KernelResult::Factors(5, 7)),
        "search" => (
            Kernel::Search {
                n_qubits: 6,
                marked: vec![5, 17, 40],
            },
            KernelResult::Found(17),
        ),
        "dna-similarity" => (
            Kernel::DnaSimilarity {
                a: "ACGTACGT".into(),
                b: "AGGTACCT".into(),
                k: 3,
            },
            KernelResult::Similarity(0.5),
        ),
        "solve-sat" => (
            Kernel::SolveSat { formula },
            KernelResult::SatSolution(Some(vec![true, false, true])),
        ),
        "compare" => (
            Kernel::Compare { x: 0.25, y: 0.75 },
            KernelResult::Distance(0.5),
        ),
        "coloring" => (
            Kernel::Family(FamilyKernel::Coloring(ColoringSpec {
                n_vertices: 4,
                n_colors: 2,
                edges: vec![(0, 1), (1, 2), (2, 3), (3, 0)],
            })),
            KernelResult::Family(FamilyResult::Coloring {
                colors: vec![0, 1, 0, 1],
                conflicts: 0,
            }),
        ),
        "qubo" => (
            Kernel::Family(FamilyKernel::Qubo(QuboSpec {
                n_vars: 3,
                linear: vec![(0, 1.0), (2, -0.5)],
                quadratic: vec![(0, 1, -2.0), (1, 2, 0.25)],
            })),
            KernelResult::Family(FamilyResult::Qubo {
                bits: vec![true, false, true],
                energy: -1.5,
            }),
        ),
        _ => return None,
    })
}

/// A stats row with every kind of entry: counters, a histogram, and a
/// per-backend group.
fn stats_row() -> RuntimeStats {
    let mut counts = [0u64; LATENCY_BUCKETS];
    counts[0] = 2;
    counts[3] = 1;
    let mut stats = RuntimeStats {
        submitted: 6,
        completed: 4,
        cache_hits: 9,
        latency: LatencyHistogram::from_counts(counts),
        ..RuntimeStats::default()
    };
    stats.per_backend.insert(
        "cpu".into(),
        BackendThroughput {
            jobs: 4,
            device_seconds: 0.5,
            operations: 128,
            ..BackendThroughput::default()
        },
    );
    stats
}

/// Every strict prefix of `frame`, then `frame` with each 4-byte window
/// overwritten by each forged count.
fn hostile_variants(frame: &[u8]) -> Vec<Vec<u8>> {
    let mut variants: Vec<Vec<u8>> = (0..frame.len()).map(|n| frame[..n].to_vec()).collect();
    for at in 0..frame.len().saturating_sub(3) {
        for count in [u32::MAX, 1 << 24, 1 << 20, 70_000] {
            let mut forged = frame.to_vec();
            forged[at..at + 4].copy_from_slice(&count.to_be_bytes());
            variants.push(forged);
        }
    }
    variants
}

#[test]
fn hostile_frames_decode_within_four_kib() {
    // A decoder that sizes anything by a count it has not checked against
    // its cap and the bytes left allocates for the forged count here.
    let _serial = serial();
    type Decode = fn(&[u8]) -> bool;
    let mut frames: Vec<(String, Vec<u8>, Decode)> = Vec::new();
    for family in &FAMILIES {
        let name = family.name;
        let (kernel, result) = family_sample(name)
            .unwrap_or_else(|| panic!("family `{name}` has no hostile-frame sample"));
        assert_eq!(family_of(&kernel).name, name);
        assert_eq!(family_of_result(&result).name, name);
        frames.push((
            format!("{name} kernel"),
            encode_kernel(&kernel).unwrap(),
            |b| decode_kernel(b).is_ok(),
        ));
        frames.push((
            format!("{name} result"),
            encode_kernel_result(&result).unwrap(),
            |b| decode_kernel_result(b).is_ok(),
        ));
    }
    let (kernel, _) = family_sample("qubo").unwrap();
    let submit = Request::Submit {
        request_id: 7,
        timeout_ms: Some(250),
        seed: Some(42),
        policy: Some(DispatchPolicy::MinPredictedLatency),
        kernel,
    };
    frames.push((
        "submit request".into(),
        encode_request(&submit).unwrap(),
        |b| decode_request(b).is_ok(),
    ));
    let stats = Response::Stats {
        request_id: 10,
        stats: stats_row(),
    };
    frames.push((
        "stats response".into(),
        encode_response(&stats).unwrap(),
        |b| decode_response(b).is_ok(),
    ));
    for (name, frame, decode) in &frames {
        assert!(decode(frame), "{name}: the intact frame must decode");
        for (i, variant) in hostile_variants(frame).iter().enumerate() {
            let (_, spent) = measure(|| decode(variant));
            assert!(spent.largest <= 4096, "{name}, variant {i}: {spent:?}");
        }
    }

    // 41 bytes that declare 2³² − 1 SAT variables for the one clause (x0).
    // Every SAT backend sizes its state by that count (the DMM's voltages
    // alone would take 32 GiB), so the decoder refuses it.
    let x0 = Clause::new(vec![Literal::positive(0)]).unwrap();
    let mut frame = encode_request(&Request::Submit {
        request_id: 7,
        timeout_ms: None,
        seed: Some(42),
        policy: None,
        kernel: Kernel::SolveSat {
            formula: Formula::new(1, vec![x0]).unwrap(),
        },
    })
    .unwrap();
    assert_eq!(frame.len(), 41);
    // The body's last 20 bytes: variable count, clause count, width, literal.
    let n_vars = frame.len() - 20;
    frame[n_vars..n_vars + 4].copy_from_slice(&u32::MAX.to_be_bytes());
    let (refused, spent) = measure(|| decode_request(&frame));
    assert!(
        matches!(
            refused,
            Err(WireError::TooLarge {
                context: "formula variables",
                len,
                max,
            }) if len == u64::from(u32::MAX) && max == MAX_SAT_VARS as u64
        ),
        "{refused:?}"
    );
    assert!(spent.largest <= 4096, "huge-variable SAT frame: {spent:?}");
}

/// A satisfiable 3-SAT kernel of `clauses` clauses, sparse enough that
/// DPLL settles it at once.
fn sat_kernel(clauses: usize) -> Kernel {
    let formula = planted_3sat(clauses / 2, 2.0, 17).unwrap().formula;
    assert_eq!(formula.len(), clauses);
    Kernel::SolveSat { formula }
}

#[test]
fn admission_keys_without_building_the_canonical_form() {
    let _serial = serial();
    // Keying and routing sort one flat literal buffer and one clause index
    // and renumber through one table: a count that does not grow with the
    // clauses. Building the canonical form would allocate per clause.
    let keying = |kernel: &Kernel| {
        let (_, key) = measure(|| canonical_key(kernel));
        let (_, route) = measure(|| admission::routing_hash(kernel));
        (key.allocations, route.allocations)
    };
    let (small, large) = (sat_kernel(200), sat_kernel(800));
    let at_200 = keying(&small);
    assert_eq!(at_200, keying(&large), "keying grows with the clauses");
    assert!(at_200.0 <= 4 && at_200.1 <= 4, "keying: {at_200:?}");

    // A wire decode allocates the clause list and one literal list per
    // clause, and nothing per clause beside it.
    let frame = encode_kernel(&small).unwrap();
    let (decoded, spent) = measure(|| decode_kernel(&frame));
    assert_eq!(decoded.unwrap(), small);
    assert!(
        spent.allocations <= 200 + 4,
        "decoding 200 clauses: {spent:?}"
    );

    // A cache hit is keyed, looked up and published; the lead that filled
    // the cache built the only canonical form.
    let config = RuntimeConfig {
        workers: 1,
        queue_capacity: 4,
        policy: DispatchPolicy::CpuOnly,
        seed: 5,
        ..RuntimeConfig::default()
    };
    let rt = Runtime::start(config).unwrap();
    let options = JobOptions::with_seed(9);
    let mut hits = Vec::new();
    for kernel in [small, large] {
        let executed = |outcome| match outcome {
            JobOutcome::Completed { execution, .. } => execution,
            other => panic!("{other:?}"),
        };
        let lead = executed(rt.submit_with(kernel.clone(), options).unwrap().wait());
        let (handle, spent) = measure(|| rt.submit_with(kernel, options).unwrap());
        assert_eq!(executed(handle.wait()), lead);
        hits.push(spent.allocations);
    }
    let stats = rt.shutdown();
    assert_eq!((stats.cache_misses, stats.cache_hits), (2, 2));
    assert_eq!(hits[0], hits[1], "a cache hit grows with the clauses");
    assert!(hits[0] <= 16, "a cache hit: {} allocations", hits[0]);
}

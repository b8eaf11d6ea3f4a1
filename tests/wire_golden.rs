//! Golden-vector regression tests for the wire codecs.
//!
//! These rows, with the `wire` and `family` rows of
//! `tests/family_registry.rs`, are the one guard of the byte layout:
//! nothing else pins it. Every request and response tag, every kernel
//! frame, every outcome and result variant, every dispatch-policy code
//! and every error code has its byte encoding frozen here, at the one
//! protocol version, and decodes back to its value; the row that moves
//! names what moved. A refactor that moves no byte touches nothing here.
//! If any of these assertions fails, the change is a wire-format break:
//! either revert the layout change or bump [`PROTOCOL_VERSION`] and
//! regenerate the vectors.
//!
//! To regenerate after an intentional version bump:
//!
//! ```text
//! cargo test --test wire_golden regenerate -- --ignored --nocapture
//! ```

use accel::family::{ColoringSpec, FamilyKernel, FamilyResult, QuboSpec};
use accel::host::DispatchPolicy;
use accel::kernel::{CostReport, Kernel, KernelResult};
use mem::cnf::{Clause, Formula, Literal};
use runtime::stats::{BackendThroughput, LatencyHistogram, LATENCY_BUCKETS};
use runtime::RuntimeStats;
use wire::{
    decode_request, decode_response, encode_request, encode_response, write_frame, ErrorCode,
    GossipEntry, Request, Response, WireOutcome, PROTOCOL_VERSION,
};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(s: &str) -> Vec<u8> {
    assert!(s.len().is_multiple_of(2), "odd-length hex string");
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).expect("valid hex"))
        .collect()
}

/// One fixed sample per request tag. Values are arbitrary but frozen:
/// changing them invalidates the golden vectors below.
fn sample_requests() -> Vec<(&'static str, Request)> {
    vec![
        (
            "hello",
            Request::Hello {
                min_version: 1,
                max_version: 3,
            },
        ),
        ("ping", Request::Ping { token: 0xDEAD_BEEF }),
        (
            "submit_plain",
            Request::Submit {
                request_id: 7,
                timeout_ms: Some(250),
                seed: Some(42),
                policy: None,
                kernel: Kernel::Factor { n: 77 },
            },
        ),
        (
            "submit_policy",
            Request::Submit {
                request_id: 8,
                timeout_ms: None,
                seed: None,
                policy: Some(DispatchPolicy::MinPredictedLatency),
                kernel: Kernel::Compare { x: 0.25, y: 0.75 },
            },
        ),
        ("cancel", Request::Cancel { request_id: 9 }),
        ("get_stats", Request::GetStats { request_id: 10 }),
        (
            "gossip",
            Request::Gossip {
                request_id: 11,
                origin: 2,
                entries: sample_gossip_entries(),
            },
        ),
        (
            "submit_coloring",
            Request::Submit {
                request_id: 12,
                timeout_ms: None,
                seed: Some(3),
                policy: None,
                kernel: Kernel::Family(FamilyKernel::Coloring(ColoringSpec {
                    n_vertices: 3,
                    n_colors: 2,
                    edges: vec![(0, 1), (1, 2)],
                })),
            },
        ),
        (
            "submit_qubo",
            Request::Submit {
                request_id: 13,
                timeout_ms: Some(500),
                seed: None,
                policy: None,
                kernel: Kernel::Family(FamilyKernel::Qubo(QuboSpec {
                    n_vars: 2,
                    linear: vec![(0, 1.0)],
                    quadratic: vec![(0, 1, -2.0)],
                })),
            },
        ),
        (
            "submit_prefer_specialized",
            submit(
                14,
                Some(DispatchPolicy::PreferSpecialized),
                Kernel::Factor { n: 15 },
            ),
        ),
        (
            "submit_cpu_only",
            submit(15, Some(DispatchPolicy::CpuOnly), Kernel::Factor { n: 15 }),
        ),
        (
            "submit_min_energy",
            submit(
                16,
                Some(DispatchPolicy::MinPredictedEnergy),
                Kernel::Factor { n: 15 },
            ),
        ),
        (
            "submit_deadline_aware",
            submit(
                17,
                Some(DispatchPolicy::DeadlineAware),
                Kernel::Factor { n: 15 },
            ),
        ),
        (
            "submit_search",
            submit(
                18,
                None,
                Kernel::Search {
                    n_qubits: 3,
                    marked: vec![5],
                },
            ),
        ),
        (
            "submit_dna",
            submit(
                19,
                None,
                Kernel::DnaSimilarity {
                    a: "ACGT".into(),
                    b: "AGGT".into(),
                    k: 2,
                },
            ),
        ),
        (
            "submit_sat",
            submit(
                20,
                None,
                Kernel::SolveSat {
                    formula: Formula::new(
                        2,
                        vec![Clause::new(vec![
                            Literal::from_dimacs(1).unwrap(),
                            Literal::from_dimacs(-2).unwrap(),
                        ])
                        .unwrap()],
                    )
                    .unwrap(),
                },
            ),
        ),
    ]
}

/// A `Submit` with no timeout and no seed: the policy byte and the
/// kernel frame are what such a row pins.
fn submit(request_id: u64, policy: Option<DispatchPolicy>, kernel: Kernel) -> Request {
    Request::Submit {
        request_id,
        timeout_ms: None,
        seed: None,
        policy,
        kernel,
    }
}

/// Fixed shard-health entries shared by the gossip request/ack samples.
fn sample_gossip_entries() -> Vec<GossipEntry> {
    vec![
        GossipEntry {
            shard: 0,
            status: 0,
            failures: 0,
            epoch: 3,
        },
        GossipEntry {
            shard: 1,
            status: 2,
            failures: 4,
            epoch: 9,
        },
    ]
}

/// One fixed sample per response tag (plus one per outcome variant).
fn sample_responses() -> Vec<(&'static str, Response)> {
    let mut counts = [0u64; LATENCY_BUCKETS];
    counts[0] = 2;
    counts[3] = 1;
    let mut stats = RuntimeStats {
        submitted: 6,
        completed: 4,
        failed: 1,
        rejected: 0,
        invalid: 0,
        timed_out: 1,
        cancelled: 0,
        queue_depth: 2,
        workers: 3,
        latency: LatencyHistogram::from_counts(counts),
        backend_faults: 5,
        retries: 3,
        reroutes: 2,
        quarantine_events: 1,
        recovery_probes: 4,
        cache_hits: 9,
        cache_misses: 11,
        cache_evictions: 2,
        coalesced: 6,
        hedged: 5,
        hedge_cancelled: 3,
        ..RuntimeStats::default()
    };
    stats.per_backend.insert(
        "cpu".into(),
        BackendThroughput {
            jobs: 4,
            device_seconds: 0.5,
            operations: 128,
            busy_seconds: 0.25,
            predicted_device_seconds: 0.4,
            ewma_correction: 1.25,
            ewma_error: 0.125,
            faults: 5,
        },
    );
    vec![
        ("hello_ack", Response::HelloAck { version: 3 }),
        ("pong", Response::Pong { token: 0xDEAD_BEEF }),
        (
            "job_result_completed",
            Response::JobResult {
                request_id: 7,
                outcome: WireOutcome::Completed {
                    backend: "quantum".into(),
                    result: KernelResult::Factors(7, 11),
                    cost: CostReport {
                        device_seconds: 2e-6,
                        operations: 64,
                    },
                    wall_nanos: 1_234,
                },
            },
        ),
        (
            "job_result_failed",
            Response::JobResult {
                request_id: 8,
                outcome: WireOutcome::Failed("backend `quantum` permanent device fault".into()),
            },
        ),
        (
            "job_result_timed_out",
            Response::JobResult {
                request_id: 9,
                outcome: WireOutcome::TimedOut,
            },
        ),
        (
            "job_result_cancelled",
            Response::JobResult {
                request_id: 10,
                outcome: WireOutcome::Cancelled,
            },
        ),
        (
            "cancel_result",
            Response::CancelResult {
                request_id: 9,
                cancelled: true,
            },
        ),
        (
            "stats",
            Response::Stats {
                request_id: 10,
                stats,
            },
        ),
        (
            "error",
            Response::Error {
                request_id: 0,
                code: ErrorCode::Malformed,
                message: "bad frame".into(),
            },
        ),
        (
            "gossip_ack",
            Response::GossipAck {
                request_id: 11,
                entries: sample_gossip_entries(),
            },
        ),
        (
            "job_result_coloring",
            Response::JobResult {
                request_id: 12,
                outcome: WireOutcome::Completed {
                    backend: "oscillator".into(),
                    result: KernelResult::Family(FamilyResult::Coloring {
                        colors: vec![0, 1, 0],
                        conflicts: 0,
                    }),
                    cost: CostReport {
                        device_seconds: 5.6e-6,
                        operations: 3,
                    },
                    wall_nanos: 910,
                },
            },
        ),
        (
            "job_result_qubo",
            Response::JobResult {
                request_id: 13,
                outcome: WireOutcome::Completed {
                    backend: "memcomputing".into(),
                    result: KernelResult::Family(FamilyResult::Qubo {
                        bits: vec![true, false],
                        energy: -1.0,
                    }),
                    cost: CostReport {
                        device_seconds: 1.5e-7,
                        operations: 150,
                    },
                    wall_nanos: 1_100,
                },
            },
        ),
        (
            "job_result_found",
            completed(14, "quantum", KernelResult::Found(42)),
        ),
        (
            "job_result_similarity",
            completed(15, "quantum", KernelResult::Similarity(0.8125)),
        ),
        (
            "job_result_sat_none",
            completed(16, "memcomputing", KernelResult::SatSolution(None)),
        ),
        (
            "job_result_sat_some",
            completed(
                17,
                "memcomputing",
                KernelResult::SatSolution(Some(vec![true, false, true])),
            ),
        ),
        (
            "job_result_distance",
            completed(18, "oscillator", KernelResult::Distance(0.375)),
        ),
        ("error_busy", refused(ErrorCode::Busy)),
        (
            "error_unsupported_version",
            refused(ErrorCode::UnsupportedVersion),
        ),
        ("error_invalid_kernel", refused(ErrorCode::InvalidKernel)),
        ("error_queue_full", refused(ErrorCode::QueueFull)),
        ("error_shutting_down", refused(ErrorCode::ShuttingDown)),
        ("error_internal", refused(ErrorCode::Internal)),
    ]
}

/// An `Error` response with a fixed request id and message: the code
/// byte is what the row pins.
fn refused(code: ErrorCode) -> Response {
    Response::Error {
        request_id: 19,
        code,
        message: "refused".into(),
    }
}

/// A completed `JobResult` with a fixed cost and wall time: the result
/// layout is what the row pins.
fn completed(request_id: u64, backend: &str, result: KernelResult) -> Response {
    Response::JobResult {
        request_id,
        outcome: WireOutcome::Completed {
            backend: backend.into(),
            result,
            cost: CostReport {
                device_seconds: 0.5,
                operations: 8,
            },
            wall_nanos: 1_000,
        },
    }
}

// ---------------------------------------------------------------------
// Golden vectors. Regenerate with the ignored `regenerate` test below.
// ---------------------------------------------------------------------

const REQUEST_GOLDENS: &[(&str, u16, &str)] = &[
    ("hello", 6, "0100010003"),
    ("ping", 6, "0200000000deadbeef"),
    ("submit_plain", 6, "0300000000000000070100000000000000fa01000000000000002a0000000000000000004d"),
    ("submit_policy", 6, "030000000000000008000003043fd00000000000003fe8000000000000"),
    ("cancel", 6, "040000000000000009"),
    ("get_stats", 6, "05000000000000000a"),
    ("gossip", 6, "06000000000000000b00000000000000020000000200000000000000000000000000000000030000000102000000040000000000000009"),
    ("submit_coloring", 6, "03000000000000000c00010000000000000003000500060000003400000000000000030000000000000002000000020000000000000000000000000000000100000000000000010000000000000002"),
    ("submit_qubo", 6, "03000000000000000d0100000000000001f400000500070000003800000000000000020000000100000000000000003ff00000000000000000000100000000000000000000000000000001c000000000000000"),
    ("submit_prefer_specialized", 6, "03000000000000000e00000100000000000000000f"),
    ("submit_cpu_only", 6, "03000000000000000f00000200000000000000000f"),
    ("submit_min_energy", 6, "03000000000000001000000400000000000000000f"),
    ("submit_deadline_aware", 6, "03000000000000001100000500000000000000000f"),
    ("submit_search", 6, "0300000000000000120000000100000003000000010000000000000005"),
    ("submit_dna", 6, "03000000000000001300000002000000044143475400000004414747540000000000000002"),
    ("submit_sat", 6, "030000000000000014000000030000000200000001000000020000000000000001fffffffffffffffe"),
];
const RESPONSE_GOLDENS: &[(&str, u16, &str)] = &[
    ("hello_ack", 6, "810003"),
    ("pong", 6, "8200000000deadbeef"),
    ("job_result_completed", 6, "83000000000000000700000000077175616e74756d000000000000000007000000000000000b3ec0c6f7a0b5ed8d000000000000004000000000000004d2"),
    ("job_result_failed", 6, "83000000000000000801000000286261636b656e6420607175616e74756d60207065726d616e656e7420646576696365206661756c74"),
    ("job_result_timed_out", 6, "83000000000000000902"),
    ("job_result_cancelled", 6, "83000000000000000a03"),
    ("cancel_result", 6, "84000000000000000901"),
    ("stats", 6, "85000000000000000a000000000000000600000000000000040000000000000001000000000000000000000000000000000000000000000001000000000000000000000000000000020000000000000003000000000000000500000000000000030000000000000002000000000000000100000000000000040000000000000009000000000000000b0000000000000002000000000000000600000000000000050000000000000003000000010000000363707500000000000000043fe000000000000000000000000000803fd00000000000003fd999999999999a3ff40000000000003fc000000000000000000000000000050000000800000000000000020000000000000000000000000000000000000000000000010000000000000000000000000000000000000000000000000000000000000000"),
    ("error", 6, "8600000000000000000200000009626164206672616d65"),
    ("gossip_ack", 6, "87000000000000000b0000000200000000000000000000000000000000030000000102000000040000000000000009"),
    ("job_result_coloring", 6, "83000000000000000c000000000a6f7363696c6c61746f72050006000000180000000300000000000000010000000000000000000000003ed77cf44765195f0000000000000003000000000000038e"),
    ("job_result_qubo", 6, "83000000000000000d000000000c6d656d636f6d707574696e670500070000000e000000020100bff00000000000003e8421f5f40d83760000000000000096000000000000044c"),
    ("job_result_found", 6, "83000000000000000e00000000077175616e74756d01000000000000002a3fe0000000000000000000000000000800000000000003e8"),
    ("job_result_similarity", 6, "83000000000000000f00000000077175616e74756d023fea0000000000003fe0000000000000000000000000000800000000000003e8"),
    ("job_result_sat_none", 6, "830000000000000010000000000c6d656d636f6d707574696e6703003fe0000000000000000000000000000800000000000003e8"),
    ("job_result_sat_some", 6, "830000000000000011000000000c6d656d636f6d707574696e670301000000030100013fe0000000000000000000000000000800000000000003e8"),
    ("job_result_distance", 6, "830000000000000012000000000a6f7363696c6c61746f72043fd80000000000003fe0000000000000000000000000000800000000000003e8"),
    ("error_busy", 6, "860000000000000013010000000772656675736564"),
    ("error_unsupported_version", 6, "860000000000000013030000000772656675736564"),
    ("error_invalid_kernel", 6, "860000000000000013040000000772656675736564"),
    ("error_queue_full", 6, "860000000000000013050000000772656675736564"),
    ("error_shutting_down", 6, "860000000000000013060000000772656675736564"),
    ("error_internal", 6, "860000000000000013070000000772656675736564"),
];
const FRAMED_PING_GOLDEN: &str = "5242434d000000090200000000deadbeef";

fn golden_for<'a>(table: &'a [(&str, u16, &str)], name: &str) -> &'a str {
    table
        .iter()
        .find(|(n, v, _)| *n == name && *v == PROTOCOL_VERSION)
        .unwrap_or_else(|| panic!("missing golden for {name} v{PROTOCOL_VERSION}"))
        .2
}

#[test]
fn request_encodings_match_goldens() {
    for (name, request) in sample_requests() {
        let bytes = encode_request(&request).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(
            hex(&bytes),
            golden_for(REQUEST_GOLDENS, name),
            "{name}: encoding drifted — this is a wire-format break"
        );
    }
}

#[test]
fn response_encodings_match_goldens() {
    for (name, response) in sample_responses() {
        let bytes = encode_response(&response).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(
            hex(&bytes),
            golden_for(RESPONSE_GOLDENS, name),
            "{name}: encoding drifted — this is a wire-format break"
        );
    }
}

#[test]
fn goldens_decode_back_to_the_original_values() {
    for (name, request) in sample_requests() {
        let bytes = unhex(golden_for(REQUEST_GOLDENS, name));
        let decoded = decode_request(&bytes).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(decoded, request, "{name}");
    }
    for (name, response) in sample_responses() {
        let bytes = unhex(golden_for(RESPONSE_GOLDENS, name));
        let decoded = decode_response(&bytes).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(decoded, response, "{name}");
    }
}

#[test]
fn framed_request_bytes_are_frozen() {
    let payload = encode_request(&Request::Ping { token: 0xDEAD_BEEF }).unwrap();
    let mut framed = Vec::new();
    write_frame(&mut framed, &payload).unwrap();
    assert_eq!(
        hex(&framed),
        FRAMED_PING_GOLDEN,
        "frame header layout drifted — this is a wire-format break"
    );
}

/// Prints the full golden tables. Run after an *intentional* format
/// change, then paste the output over the constants above.
#[test]
#[ignore = "generator, not a check"]
fn regenerate() {
    println!("const REQUEST_GOLDENS: &[(&str, u16, &str)] = &[");
    for (name, request) in sample_requests() {
        let bytes = encode_request(&request).unwrap();
        println!("    (\"{name}\", {PROTOCOL_VERSION}, \"{}\"),", hex(&bytes));
    }
    println!("];");
    println!("const RESPONSE_GOLDENS: &[(&str, u16, &str)] = &[");
    for (name, response) in sample_responses() {
        let bytes = encode_response(&response).unwrap();
        println!("    (\"{name}\", {PROTOCOL_VERSION}, \"{}\"),", hex(&bytes));
    }
    println!("];");
    let payload = encode_request(&Request::Ping { token: 0xDEAD_BEEF }).unwrap();
    let mut framed = Vec::new();
    write_frame(&mut framed, &payload).unwrap();
    println!("const FRAMED_PING_GOLDEN: &str = \"{}\";", hex(&framed));
}

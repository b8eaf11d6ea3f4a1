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
//! either revert the layout change or bump [`PROTOCOL_VERSION`] (one
//! line: `the_protocol_version_is_pinned`) and regenerate the vectors.
//! A new stats counter is neither: it is left out of a row while it is
//! zero, so no byte here moves. The rows were regenerated once for
//! protocol 8, when every kernel and result frame became its family's
//! one-byte tag followed by the body inline.
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
    Request, Response, WireOutcome, MAX_SEQUENCE_LEN, MAX_STRING_LEN, PROTOCOL_VERSION,
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

/// One fixed sample per response tag (plus one per outcome variant).
fn sample_responses() -> Vec<(&'static str, Response)> {
    let mut counts = [0u64; LATENCY_BUCKETS];
    counts[0] = 2;
    counts[3] = 1;
    // Every counter is non-zero, so the `stats` row pins every name. The
    // `hedged` and `hedge_cancelled` counters were left at zero here, so
    // they were never written, and deleting them moved no byte.
    let mut stats = RuntimeStats {
        submitted: 6,
        completed: 4,
        failed: 1,
        rejected: 2,
        invalid: 3,
        timed_out: 1,
        cancelled: 1,
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

const REQUEST_GOLDENS: &[(&str, &str)] = &[
    ("hello", "0100010003"),
    ("ping", "0200000000deadbeef"),
    ("submit_plain", "0300000000000000070100000000000000fa01000000000000002a0001000000000000004d"),
    ("submit_policy", "030000000000000008000003053fd00000000000003fe8000000000000"),
    ("cancel", "040000000000000009"),
    ("get_stats", "05000000000000000a"),
    ("submit_coloring", "03000000000000000c00010000000000000003000600000000000000030000000000000002000000020000000000000000000000000000000100000000000000010000000000000002"),
    ("submit_qubo", "03000000000000000d0100000000000001f400000700000000000000020000000100000000000000003ff00000000000000000000100000000000000000000000000000001c000000000000000"),
    ("submit_prefer_specialized", "03000000000000000e00000101000000000000000f"),
    ("submit_cpu_only", "03000000000000000f00000201000000000000000f"),
    ("submit_min_energy", "03000000000000001000000401000000000000000f"),
    ("submit_deadline_aware", "03000000000000001100000501000000000000000f"),
    ("submit_search", "0300000000000000120000000200000003000000010000000000000005"),
    ("submit_dna", "03000000000000001300000003000000044143475400000004414747540000000000000002"),
    ("submit_sat", "030000000000000014000000040000000200000001000000020000000000000001fffffffffffffffe"),
];
const RESPONSE_GOLDENS: &[(&str, &str)] = &[
    ("hello_ack", "810003"),
    ("pong", "8200000000deadbeef"),
    ("job_result_completed", "83000000000000000700000000077175616e74756d010000000000000007000000000000000b3ec0c6f7a0b5ed8d000000000000004000000000000004d2"),
    ("job_result_failed", "83000000000000000801000000286261636b656e6420607175616e74756d60207065726d616e656e7420646576696365206661756c74"),
    ("job_result_timed_out", "83000000000000000902"),
    ("job_result_cancelled", "83000000000000000a03"),
    ("cancel_result", "84000000000000000901"),
    ("stats", "85000000000000000a00000014000000097375626d697474656400000000000000000600000009636f6d706c65746564000000000000000004000000066661696c65640000000000000000010000000872656a656374656400000000000000000200000007696e76616c69640000000000000000030000000974696d65645f6f75740000000000000000010000000963616e63656c6c65640000000000000000010000000b71756575655f646570746800000000000000000200000007776f726b6572730000000000000000030000000e6261636b656e645f6661756c74730000000000000000050000000772657472696573000000000000000003000000087265726f757465730000000000000000020000001171756172616e74696e655f6576656e74730000000000000000010000000f7265636f766572795f70726f6265730000000000000000040000000a63616368655f686974730000000000000000090000000c63616368655f6d697373657300000000000000000b0000000f63616368655f6576696374696f6e7300000000000000000200000009636f616c6573636564000000000000000006000000076c6174656e63790200000007000000000000000a000000000000006400000000000003e8000000000000271000000000000186a000000000000f424000000000009896800000000800000000000000020000000000000000000000000000000000000000000000010000000000000000000000000000000000000000000000000000000000000000000000036370750300000008000000046a6f62730000000000000000040000000e6465766963655f7365636f6e6473013fe00000000000000000000a6f7065726174696f6e730000000000000000800000000c627573795f7365636f6e6473013fd0000000000000000000187072656469637465645f6465766963655f7365636f6e6473013fd999999999999a0000000f65776d615f636f7272656374696f6e013ff40000000000000000000a65776d615f6572726f72013fc0000000000000000000066661756c7473000000000000000005"),
    ("error", "8600000000000000000200000009626164206672616d65"),
    ("job_result_coloring", "83000000000000000c000000000a6f7363696c6c61746f72060000000300000000000000010000000000000000000000003ed77cf44765195f0000000000000003000000000000038e"),
    ("job_result_qubo", "83000000000000000d000000000c6d656d636f6d707574696e6707000000020100bff00000000000003e8421f5f40d83760000000000000096000000000000044c"),
    ("job_result_found", "83000000000000000e00000000077175616e74756d02000000000000002a3fe0000000000000000000000000000800000000000003e8"),
    ("job_result_similarity", "83000000000000000f00000000077175616e74756d033fea0000000000003fe0000000000000000000000000000800000000000003e8"),
    ("job_result_sat_none", "830000000000000010000000000c6d656d636f6d707574696e6704003fe0000000000000000000000000000800000000000003e8"),
    ("job_result_sat_some", "830000000000000011000000000c6d656d636f6d707574696e670401000000030100013fe0000000000000000000000000000800000000000003e8"),
    ("job_result_distance", "830000000000000012000000000a6f7363696c6c61746f72053fd80000000000003fe0000000000000000000000000000800000000000003e8"),
    ("error_busy", "860000000000000013010000000772656675736564"),
    ("error_unsupported_version", "860000000000000013030000000772656675736564"),
    ("error_invalid_kernel", "860000000000000013040000000772656675736564"),
    ("error_queue_full", "860000000000000013050000000772656675736564"),
    ("error_shutting_down", "860000000000000013060000000772656675736564"),
    ("error_internal", "860000000000000013070000000772656675736564"),
];
const FRAMED_PING_GOLDEN: &str = "5242434d000000090200000000deadbeef";

fn golden_for<'a>(table: &'a [(&str, &str)], name: &str) -> &'a str {
    table
        .iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("missing golden for {name}"))
        .1
}

/// The one version every row above is written at: a bump edits this line
/// and regenerates the tables.
#[test]
fn the_protocol_version_is_pinned() {
    assert_eq!(PROTOCOL_VERSION, 8);
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

/// `count` as a big-endian `u32`: a length or an entry count.
fn be(count: u32) -> Vec<u8> {
    count.to_be_bytes().to_vec()
}

fn u64s(values: &[u64]) -> Vec<u8> {
    values.iter().flat_map(|v| v.to_be_bytes()).collect()
}

/// An entry row: its count, then its entries.
fn entries(list: &[Vec<u8>]) -> Vec<u8> {
    [be(list.len() as u32), list.concat()].concat()
}

fn entry(name: &str, kind: u8, value: Vec<u8>) -> Vec<u8> {
    [be(name.len() as u32), name.into(), vec![kind], value].concat()
}

fn histogram(bounds: &[u64], counts: &[u64]) -> Vec<u8> {
    let column = |c: &[u64]| [be(c.len() as u32), u64s(c)].concat();
    [column(bounds), column(counts)].concat()
}

/// A `Stats` response carrying `row`.
fn stats(row: Vec<u8>) -> Vec<u8> {
    [vec![0x85], u64s(&[10]), row].concat()
}

/// Payloads a peer must refuse, each with the start of its error's
/// `Debug` form. The first two are protocol 6's `gossip` and `gossip_ack`
/// goldens, whose tags are gone.
fn hostile_rows() -> Vec<(Vec<u8>, &'static str)> {
    let once = entry("submitted", 0, u64s(&[1]));
    let latency = |h| entries(&[entry("latency", 2, h)]);
    vec![
        (unhex("06000000000000000b00000000000000020000000200000000000000000000000000000000030000000102000000040000000000000009"), "UnknownTag { context: \"request\", tag: 6 }"),
        (unhex("87000000000000000b0000000200000000000000000000000000000000030000000102000000040000000000000009"), "UnknownTag { context: \"response\", tag: 135 }"),
        (stats(entries(&[entry("submitted", 4, u64s(&[1]))])), "UnknownTag { context: \"stats entry kind\", tag: 4 }"),
        (stats(be(MAX_SEQUENCE_LEN + 1)), "TooLarge { context: \"stats entries\""),
        (stats([be(1), be(MAX_STRING_LEN + 1), u64s(&[0])].concat()), "TooLarge { context: \"stats entry name\""),
        (stats(latency(histogram(&[10, 100], &[5]))), "Invalid { context: \"histogram\""),
        (stats(latency(histogram(&[50], &[1, 2]))), "Invalid { context: \"latency buckets\""),
        (stats(entries(&[entry("cpu", 3, entries(&[entry("inner", 3, be(0))]))])), "Invalid { context: \"stats group\""),
        (stats(entries(&[once.clone(), once])), "Invalid { context: \"stats entry\""),
    ]
}

#[test]
fn hostile_rows_are_refused_with_typed_errors() {
    for (bytes, error) in hostile_rows() {
        let refused = match bytes[0] {
            0x06 => decode_request(&bytes).map(drop),
            _ => decode_response(&bytes).map(drop),
        };
        let found = format!("{:?}", refused.unwrap_err());
        assert!(found.starts_with(error), "expected {error}…, got {found}");
    }
}

#[test]
fn unknown_stats_entries_are_skipped_and_missing_ones_read_as_default() {
    let decode = |row| match decode_response(&stats(row)).unwrap() {
        Response::Stats { stats, .. } => stats,
        other => panic!("{other:?}"),
    };
    assert_eq!(decode(entries(&[])), RuntimeStats::default());
    // A name this build does not know is skipped whatever its kind, and so
    // is a known name of another kind, in a group as well. `hedged` and
    // `hedge_cancelled` are counters a peer from before their deletion
    // still writes.
    let later = entry("later", 0, u64s(&[7]));
    let row = entries(&[
        later.clone(),
        entry("hedged", 0, u64s(&[5])),
        entry("hedge_cancelled", 0, u64s(&[2])),
        entry("later", 1, u64s(&[0.5f64.to_bits()])),
        entry("later", 2, histogram(&[10], &[1, 2])),
        entry("submitted", 1, u64s(&[2.0f64.to_bits()])),
        entry("completed", 0, u64s(&[3])),
        entry("gpu", 3, entries(&[later, entry("jobs", 0, u64s(&[2]))])),
    ]);
    let mut expected = RuntimeStats {
        completed: 3,
        ..RuntimeStats::default()
    };
    expected.per_backend.insert(
        "gpu".into(),
        BackendThroughput {
            jobs: 2,
            ..BackendThroughput::default()
        },
    );
    assert_eq!(decode(row), expected);
}

/// Prints the full golden tables. Run after an *intentional* format
/// change, then paste the output over the constants above.
#[test]
#[ignore = "generator, not a check"]
fn regenerate() {
    println!("const REQUEST_GOLDENS: &[(&str, &str)] = &[");
    for (name, request) in sample_requests() {
        let bytes = encode_request(&request).unwrap();
        println!("    (\"{name}\", \"{}\"),", hex(&bytes));
    }
    println!("];");
    println!("const RESPONSE_GOLDENS: &[(&str, &str)] = &[");
    for (name, response) in sample_responses() {
        let bytes = encode_response(&response).unwrap();
        println!("    (\"{name}\", \"{}\"),", hex(&bytes));
    }
    println!("];");
    let payload = encode_request(&Request::Ping { token: 0xDEAD_BEEF }).unwrap();
    let mut framed = Vec::new();
    write_frame(&mut framed, &payload).unwrap();
    println!("const FRAMED_PING_GOLDEN: &str = \"{}\";", hex(&framed));
}

//! Wire-protocol robustness: seeded random round-trips over every
//! message shape, plus hostile-input tests — truncated frames, oversized
//! length prefixes, bad magic, wrong versions, and random byte fuzz.
//! The contract under test: malformed input always yields a `WireError`,
//! never a panic and never an attacker-sized allocation.

use accel::family::{
    family_of, family_of_result, ColoringSpec, FamilyKernel, FamilyResult, QuboSpec, FAMILIES,
    MAX_COLORING_EDGES, MAX_COLORING_VERTICES, MAX_FACTOR_N, MAX_QUBO_TERMS, MAX_QUBO_VARS,
    MAX_SAT_VARS,
};
use accel::host::DispatchPolicy;
use accel::kernel::{CostReport, Kernel, KernelResult};
use mem::cnf::{Clause, Formula, Literal};
use mem::generators::{planted_3sat, random_ksat};
use numerics::rng::{rng_from_seed, Rng, StdRng};
use runtime::stats::{
    Field, LatencyHistogram, Slot, BACKEND_FIELDS, LATENCY_BUCKETS, RUNTIME_FIELDS,
};
use runtime::{BackendThroughput, RuntimeStats};
use wire::{
    decode_kernel, decode_kernel_result, decode_request, decode_response, encode_kernel,
    encode_kernel_result, encode_request, encode_response, negotiate, read_frame, write_frame,
    ErrorCode, Request, Response, WireError, WireOutcome, MAGIC, MAX_FRAME_LEN, PROTOCOL_VERSION,
};

const ROUNDS: usize = 64;

fn random_policy(rng: &mut StdRng) -> Option<DispatchPolicy> {
    match rng.gen_range(0..6u32) {
        0 => None,
        1 => Some(DispatchPolicy::PreferSpecialized),
        2 => Some(DispatchPolicy::CpuOnly),
        3 => Some(DispatchPolicy::MinPredictedLatency),
        4 => Some(DispatchPolicy::MinPredictedEnergy),
        _ => Some(DispatchPolicy::DeadlineAware),
    }
}

fn random_string(rng: &mut StdRng, max_len: usize) -> String {
    let alphabet = ['A', 'C', 'G', 'T', 'x', '\u{00e9}', '\u{2264}'];
    let len = rng.gen_range(0..=max_len);
    (0..len)
        .map(|_| alphabet[rng.gen_range(0..alphabet.len())])
        .collect()
}

fn random_kernel(rng: &mut StdRng) -> Kernel {
    match rng.gen_range(0..5u32) {
        0 => Kernel::Factor {
            n: rng.gen_range(0..=MAX_FACTOR_N),
        },
        1 => {
            let n_qubits = rng.gen_range(1..12usize);
            let marked = (0..rng.gen_range(0..6usize))
                .map(|_| rng.gen_range(0..(1usize << n_qubits)))
                .collect();
            Kernel::Search { n_qubits, marked }
        }
        2 => Kernel::DnaSimilarity {
            a: random_string(rng, 20),
            b: random_string(rng, 20),
            k: rng.gen_range(1..4usize),
        },
        3 => {
            let formula = random_ksat(rng.gen_range(3..10usize), 3, 3.0, rng.gen::<u64>())
                .expect("generator parameters are valid");
            Kernel::SolveSat { formula }
        }
        _ => Kernel::Compare {
            x: rng.gen_range(0.0..1.0),
            y: rng.gen_range(0.0..1.0),
        },
    }
}

fn random_result(rng: &mut StdRng) -> KernelResult {
    match rng.gen_range(0..5u32) {
        0 => KernelResult::Factors(rng.gen::<u64>(), rng.gen::<u64>()),
        1 => KernelResult::Found(rng.gen_range(0..1_000_000usize)),
        2 => KernelResult::Similarity(rng.gen_range(0.0..1.0)),
        3 => {
            let bits = (0..rng.gen_range(0..24usize))
                .map(|_| rng.gen_range(0..2u32) == 1)
                .collect();
            KernelResult::SatSolution(if rng.gen_range(0..4u32) == 0 {
                None
            } else {
                Some(bits)
            })
        }
        _ => KernelResult::Distance(rng.gen_range(0.0..1.0)),
    }
}

fn random_outcome(rng: &mut StdRng) -> WireOutcome {
    match rng.gen_range(0..4u32) {
        0 => WireOutcome::Completed {
            backend: random_string(rng, 12),
            result: random_result(rng),
            cost: CostReport {
                device_seconds: rng.gen_range(0.0..1.0),
                operations: rng.gen::<u64>(),
            },
            wall_nanos: rng.gen::<u64>(),
        },
        1 => WireOutcome::Failed(random_string(rng, 40)),
        2 => WireOutcome::TimedOut,
        _ => WireOutcome::Cancelled,
    }
}

#[test]
fn random_kernels_round_trip() {
    let mut rng = rng_from_seed(0xABCD_0001);
    for round in 0..ROUNDS {
        let kernel = random_kernel(&mut rng);
        let bytes = encode_kernel(&kernel).expect("encode");
        let back = decode_kernel(&bytes).unwrap_or_else(|e| panic!("round {round}: {e}"));
        assert_eq!(back, kernel, "round {round}");
    }
}

#[test]
fn random_results_round_trip() {
    let mut rng = rng_from_seed(0xABCD_0002);
    for round in 0..ROUNDS {
        let result = random_result(&mut rng);
        let bytes = encode_kernel_result(&result).expect("encode");
        let back = decode_kernel_result(&bytes).unwrap_or_else(|e| panic!("round {round}: {e}"));
        assert_eq!(back, result, "round {round}");
    }
}

#[test]
fn random_requests_round_trip() {
    let mut rng = rng_from_seed(0xABCD_0003);
    for round in 0..ROUNDS {
        let request = match rng.gen_range(0..5u32) {
            0 => Request::Hello {
                min_version: rng.gen_range(0..10u64) as u16,
                max_version: rng.gen_range(0..10u64) as u16,
            },
            1 => Request::Ping {
                token: rng.gen::<u64>(),
            },
            2 => Request::Submit {
                request_id: rng.gen::<u64>(),
                timeout_ms: if rng.gen_range(0..2u32) == 0 {
                    None
                } else {
                    Some(rng.gen::<u64>())
                },
                seed: if rng.gen_range(0..2u32) == 0 {
                    None
                } else {
                    Some(rng.gen::<u64>())
                },
                policy: random_policy(&mut rng),
                kernel: random_kernel(&mut rng),
            },
            3 => Request::Cancel {
                request_id: rng.gen::<u64>(),
            },
            _ => Request::GetStats {
                request_id: rng.gen::<u64>(),
            },
        };
        let bytes = encode_request(&request).expect("encode");
        let back = decode_request(&bytes).unwrap_or_else(|e| panic!("round {round}: {e}"));
        assert_eq!(back, request, "round {round}");
    }
}

#[test]
fn random_responses_round_trip() {
    let mut rng = rng_from_seed(0xABCD_0004);
    let codes = [
        ErrorCode::Busy,
        ErrorCode::Malformed,
        ErrorCode::UnsupportedVersion,
        ErrorCode::InvalidKernel,
        ErrorCode::QueueFull,
        ErrorCode::ShuttingDown,
        ErrorCode::Internal,
    ];
    for round in 0..ROUNDS {
        let response = match rng.gen_range(0..4u32) {
            0 => Response::Pong {
                token: rng.gen::<u64>(),
            },
            1 => Response::JobResult {
                request_id: rng.gen::<u64>(),
                outcome: random_outcome(&mut rng),
            },
            2 => Response::CancelResult {
                request_id: rng.gen::<u64>(),
                cancelled: rng.gen_range(0..2u32) == 1,
            },
            _ => Response::Error {
                request_id: rng.gen::<u64>(),
                code: codes[rng.gen_range(0..codes.len())],
                message: random_string(&mut rng, 60),
            },
        };
        let bytes = encode_response(&response).expect("encode");
        let back = decode_response(&bytes).unwrap_or_else(|e| panic!("round {round}: {e}"));
        assert_eq!(back, response, "round {round}");
    }
}

/// Sets about two in three of `fields` to random values, leaving the
/// rest at their defaults.
fn randomize<T>(rng: &mut StdRng, fields: &[Field<T>], value: &mut T) {
    for field in fields {
        if rng.gen_range(0..3u32) == 0 {
            continue;
        }
        match field.slot {
            Slot::Count(_, set) => *set(value) = rng.gen::<u64>(),
            Slot::Total(_, set) | Slot::Mean(_, set) => *set(value) = (rng.next_f64() - 0.5) * 1e6,
            Slot::Histogram(_, set) => {
                *set(value) = LatencyHistogram::from_counts([0; LATENCY_BUCKETS].map(|_| rng.gen()))
            }
        }
    }
}

#[test]
fn random_stats_round_trip() {
    let mut rng = rng_from_seed(0xABCD_0005);
    for round in 0..ROUNDS {
        let mut stats = RuntimeStats::default();
        randomize(&mut rng, RUNTIME_FIELDS, &mut stats);
        for _ in 0..rng.gen_range(0..4usize) {
            let mut row = BackendThroughput::default();
            randomize(&mut rng, BACKEND_FIELDS, &mut row);
            stats.per_backend.insert(random_string(&mut rng, 12), row);
        }
        // A backend row at its default still travels: its group is empty.
        stats.per_backend.insert("idle".into(), Default::default());
        let response = Response::Stats {
            request_id: round as u64,
            stats,
        };
        let bytes = encode_response(&response).expect("encode");
        let back = decode_response(&bytes).unwrap_or_else(|e| panic!("round {round}: {e}"));
        assert_eq!(back, response, "round {round}");
    }
}

#[test]
fn framed_round_trip_and_every_truncation_errors() {
    let sat = planted_3sat(10, 3.5, 11).unwrap();
    let payload = encode_request(&Request::Submit {
        request_id: 5,
        timeout_ms: Some(1_000),
        seed: Some(99),
        policy: Some(DispatchPolicy::DeadlineAware),
        kernel: Kernel::SolveSat {
            formula: sat.formula,
        },
    })
    .unwrap();
    let mut framed = Vec::new();
    write_frame(&mut framed, &payload).unwrap();
    // Intact: reads back exactly.
    assert_eq!(read_frame(&mut framed.as_slice()).unwrap(), payload);
    // Truncated at every byte boundary: an error, never a panic or hang.
    for cut in 0..framed.len() {
        let err = read_frame(&mut &framed[..cut]).expect_err("truncated frame must fail");
        assert!(
            matches!(err, WireError::Io(_)),
            "cut {cut}: unexpected {err}"
        );
    }
}

#[test]
fn oversized_length_prefix_rejected_before_allocation() {
    // A frame header claiming u32::MAX bytes must be refused outright —
    // the reader must not trust the attacker-supplied length.
    let mut hostile = Vec::new();
    hostile.extend_from_slice(&MAGIC);
    hostile.extend_from_slice(&u32::MAX.to_be_bytes());
    match read_frame(&mut hostile.as_slice()) {
        Err(WireError::TooLarge { len, max, .. }) => {
            assert_eq!(len, u64::from(u32::MAX));
            assert_eq!(max, u64::from(MAX_FRAME_LEN));
        }
        other => panic!("unexpected {other:?}"),
    }
    // Just over the limit fails the same way; exactly at it is only an
    // I/O error because the body bytes are not there.
    let mut hostile = Vec::new();
    hostile.extend_from_slice(&MAGIC);
    hostile.extend_from_slice(&(MAX_FRAME_LEN + 1).to_be_bytes());
    assert!(matches!(
        read_frame(&mut hostile.as_slice()),
        Err(WireError::TooLarge { .. })
    ));
}

#[test]
fn bad_magic_rejected() {
    let payload = encode_request(&Request::Ping { token: 1 }).unwrap();
    let mut framed = Vec::new();
    write_frame(&mut framed, &payload).unwrap();
    framed[0] = b'X';
    match read_frame(&mut framed.as_slice()) {
        Err(WireError::BadMagic { found }) => assert_eq!(&found[1..], &MAGIC[1..]),
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn wrong_version_ranges_refuse_negotiation() {
    // Only-newer and only-older clients both fail; a range containing
    // the one version settles on it.
    assert_eq!(negotiate(PROTOCOL_VERSION + 1, u16::MAX), None);
    assert_eq!(negotiate(0, PROTOCOL_VERSION - 1), None);
    assert_eq!(negotiate(0, u16::MAX), Some(PROTOCOL_VERSION));
}

#[test]
fn random_byte_fuzz_never_panics() {
    let mut rng = rng_from_seed(0xFEED_FACE);
    for _ in 0..512 {
        let len = rng.gen_range(0..96usize);
        let bytes: Vec<u8> = (0..len).map(|_| rng.gen_range(0..256u32) as u8).collect();
        // Outcomes may be Ok (a short prefix can be a valid message) or
        // Err; the only failure mode is a panic, which the harness
        // catches.
        let _ = decode_request(&bytes);
        let _ = decode_response(&bytes);
        let _ = decode_kernel(&bytes);
        let _ = decode_kernel_result(&bytes);
        let _ = read_frame(&mut bytes.as_slice());
    }
}

#[test]
fn corrupted_valid_frames_never_panic() {
    // Take a structurally valid encoded request and flip every single
    // byte through a few values: decode must never panic.
    let mut rng = rng_from_seed(0xC0FF_EE00);
    let base = encode_request(&Request::Submit {
        request_id: 1,
        timeout_ms: Some(10),
        seed: None,
        policy: Some(DispatchPolicy::MinPredictedLatency),
        kernel: random_kernel(&mut rng),
    })
    .unwrap();
    for pos in 0..base.len() {
        for delta in [1u8, 0x7F, 0xFF] {
            let mut corrupted = base.clone();
            corrupted[pos] = corrupted[pos].wrapping_add(delta);
            let _ = decode_request(&corrupted);
        }
    }
}

#[test]
fn out_of_range_policy_byte_rejected() {
    let valid = encode_request(&Request::Submit {
        request_id: 9,
        timeout_ms: None,
        seed: None,
        policy: Some(DispatchPolicy::CpuOnly),
        kernel: Kernel::Factor { n: 35 },
    })
    .unwrap();
    // Layout: tag(1) + request_id(8) + opt timeout(1) + opt seed(1), then
    // the policy byte. Values 0..=5 are defined; everything above must
    // fail with UnknownTag, never misparse into a kernel.
    let policy_pos = 1 + 8 + 1 + 1;
    for bad in [6u8, 7, 42, 0xFF] {
        let mut corrupted = valid.clone();
        corrupted[policy_pos] = bad;
        assert!(
            matches!(
                decode_request(&corrupted),
                Err(WireError::UnknownTag {
                    context: "dispatch policy",
                    ..
                })
            ),
            "policy byte {bad} must be rejected"
        );
    }
}

#[test]
fn policy_byte_fuzz_decodes_or_errors_cleanly() {
    // Fuzz every value of the policy byte inside an otherwise
    // valid frame: each decode either succeeds (0..=5) or errors; the
    // successful ones must round-trip to one of the six defined states.
    let valid = encode_request(&Request::Submit {
        request_id: 1,
        timeout_ms: None,
        seed: None,
        policy: None,
        kernel: Kernel::Compare { x: 0.5, y: 0.5 },
    })
    .unwrap();
    let policy_pos = 1 + 8 + 1 + 1;
    let mut decoded = 0;
    for byte in 0..=255u8 {
        let mut frame = valid.clone();
        frame[policy_pos] = byte;
        match decode_request(&frame) {
            Ok(Request::Submit { policy, .. }) => {
                decoded += 1;
                let reencoded = encode_request(&Request::Submit {
                    request_id: 1,
                    timeout_ms: None,
                    seed: None,
                    policy,
                    kernel: Kernel::Compare { x: 0.5, y: 0.5 },
                })
                .unwrap();
                assert_eq!(reencoded, frame, "policy byte {byte} must round-trip");
            }
            Ok(other) => panic!("policy byte {byte} decoded as {other:?}"),
            Err(_) => {}
        }
    }
    assert_eq!(decoded, 6, "exactly the six defined policy codes decode");
}

/// One kernel and one result of every family, in [`FAMILIES`] order.
fn family_samples() -> Vec<(Kernel, KernelResult)> {
    let samples = vec![
        (Kernel::Factor { n: 91 }, KernelResult::Factors(7, 13)),
        (
            Kernel::Search {
                n_qubits: 6,
                marked: vec![0, 17, 63],
            },
            KernelResult::Found(42),
        ),
        (
            Kernel::DnaSimilarity {
                a: "ACGTACGT".into(),
                b: "TTGCACGA".into(),
                k: 3,
            },
            KernelResult::Similarity(0.815),
        ),
        (
            Kernel::SolveSat {
                formula: planted_3sat(12, 3.5, 3).unwrap().formula,
            },
            KernelResult::SatSolution(Some(vec![true, false, true])),
        ),
        (
            Kernel::Compare { x: 0.25, y: 0.75 },
            KernelResult::Distance(1.0 / 3.0),
        ),
        (
            capped_coloring(3),
            KernelResult::Family(FamilyResult::Coloring {
                colors: vec![0, 1, 0, 1],
                conflicts: 0,
            }),
        ),
        (
            capped_qubo(2, 2),
            KernelResult::Family(FamilyResult::Qubo {
                bits: vec![true, false, true],
                energy: -1.75,
            }),
        ),
    ];
    assert_eq!(samples.len(), FAMILIES.len(), "a family has no sample");
    for ((kernel, result), info) in samples.iter().zip(&FAMILIES) {
        assert_eq!(family_of(kernel), info);
        assert_eq!(family_of_result(result), info);
    }
    samples
}

/// Sweeps the first byte of every sample's frame over `0..=255`: the
/// byte that is a family's tag, ahead of that family's body, decodes to
/// the sample; a byte that is no family's tag fails with `UnknownTag`,
/// whatever body follows it.
fn sweep_first_byte<T: PartialEq + std::fmt::Debug>(
    samples: &[T],
    context: &str,
    encode: fn(&T) -> Result<Vec<u8>, WireError>,
    decode: fn(&[u8]) -> Result<T, WireError>,
) {
    let bodies: Vec<Vec<u8>> = samples
        .iter()
        .map(|sample| encode(sample).unwrap()[1..].to_vec())
        .collect();
    let mut decoded = 0;
    for byte in 0..=255u8 {
        let family = FAMILIES.iter().position(|f| f.tag == byte);
        for (i, body) in bodies.iter().enumerate() {
            let mut frame = vec![byte];
            frame.extend_from_slice(body);
            match (family, decode(&frame)) {
                (Some(f), Ok(value)) if f == i => {
                    assert_eq!(value, samples[i], "{context} tag {byte}");
                    decoded += 1;
                }
                // Another family's tag ahead of this body: it is read as
                // that family's body, which this sweep does not judge.
                (Some(f), _) if f != i => {}
                (None, Err(WireError::UnknownTag { tag, .. })) if tag == byte => {}
                (_, other) => panic!("{context} byte {byte} before body {i}: {other:?}"),
            }
        }
    }
    assert_eq!(decoded, FAMILIES.len(), "{context}: one decode per tag");
}

#[test]
fn family_tag_byte_sweep_decodes_its_family_or_refuses_the_tag() {
    let (kernels, results): (Vec<_>, Vec<_>) = family_samples().into_iter().unzip();
    sweep_first_byte(&kernels, "kernel", encode_kernel, decode_kernel);
    sweep_first_byte(
        &results,
        "result",
        encode_kernel_result,
        decode_kernel_result,
    );
}

/// The `i`-th of a run of valid edges over `n` vertices: no loops, both
/// endpoints in range.
fn edge(i: usize, n: usize) -> (usize, usize) {
    let a = i % n;
    (a, (a + 1 + i / n) % n)
}

/// A colouring over the vertex cap with `edges` valid edges.
fn capped_coloring(edges: usize) -> Kernel {
    let n = MAX_COLORING_VERTICES;
    Kernel::Family(FamilyKernel::Coloring(ColoringSpec {
        n_vertices: n,
        n_colors: 3,
        edges: (0..edges).map(|i| edge(i, n)).collect(),
    }))
}

/// A one-clause formula declaring `n_vars` variables, the last one used.
fn sat_over(n_vars: usize) -> Kernel {
    let clause = Clause::new(vec![Literal::positive(n_vars - 1)]).unwrap();
    Kernel::SolveSat {
        formula: Formula::new(n_vars, vec![clause]).unwrap(),
    }
}

/// A QUBO over the variable cap with `linear` and `quadratic` valid terms.
fn capped_qubo(linear: usize, quadratic: usize) -> Kernel {
    let n = MAX_QUBO_VARS;
    Kernel::Family(FamilyKernel::Qubo(QuboSpec {
        n_vars: n,
        linear: (0..linear).map(|i| (i % n, 1.0)).collect(),
        quadratic: (0..quadratic)
            .map(|i| {
                let (a, b) = edge(i, n);
                (a, b, -0.5)
            })
            .collect(),
    }))
}

fn submit(kernel: Kernel) -> Request {
    Request::Submit {
        request_id: 1,
        timeout_ms: None,
        seed: None,
        policy: None,
        kernel,
    }
}

#[test]
fn kernels_at_their_serving_caps_cross_the_wire() {
    for kernel in [
        capped_coloring(MAX_COLORING_EDGES),
        capped_coloring(MAX_COLORING_EDGES - 1),
        capped_qubo(MAX_QUBO_TERMS, MAX_QUBO_TERMS),
        sat_over(MAX_SAT_VARS),
        Kernel::Factor { n: MAX_FACTOR_N },
    ] {
        assert_eq!(kernel.validate(), Ok(()), "{}", kernel.describe());
        let request = submit(kernel);
        let bytes = encode_request(&request).unwrap();
        assert!(bytes.len() <= MAX_FRAME_LEN as usize);
        assert_eq!(decode_request(&bytes).unwrap(), request);
    }
}

#[test]
fn a_factor_frame_past_its_serving_cap_is_refused_at_decode() {
    // A factor frame is its tag, then `n` as 8 big-endian bytes.
    let at_cap = encode_kernel(&Kernel::Factor { n: MAX_FACTOR_N }).unwrap();
    assert_eq!(at_cap.len(), 9);
    for n in [MAX_FACTOR_N + 1, u64::MAX] {
        let mut frame = at_cap.clone();
        frame[1..].copy_from_slice(&n.to_be_bytes());
        match decode_kernel(&frame) {
            Err(WireError::TooLarge { context, len, max }) => {
                assert_eq!((context, len, max), ("factor n", n, MAX_FACTOR_N));
            }
            other => panic!("factor n = {n}: {other:?}"),
        }
    }
}

#[test]
fn one_past_a_serving_cap_is_refused_at_encode() {
    let cases = [
        (
            capped_coloring(MAX_COLORING_EDGES + 1),
            "coloring edges",
            MAX_COLORING_EDGES,
        ),
        (
            capped_qubo(MAX_QUBO_TERMS + 1, 0),
            "qubo linear terms",
            MAX_QUBO_TERMS,
        ),
        (
            capped_qubo(0, MAX_QUBO_TERMS + 1),
            "qubo quadratic terms",
            MAX_QUBO_TERMS,
        ),
        (
            Kernel::Family(FamilyKernel::Coloring(ColoringSpec {
                n_vertices: MAX_COLORING_VERTICES + 1,
                n_colors: 3,
                edges: vec![],
            })),
            "coloring vertices",
            MAX_COLORING_VERTICES,
        ),
        (
            Kernel::Family(FamilyKernel::Coloring(ColoringSpec {
                n_vertices: 3,
                n_colors: MAX_COLORING_VERTICES + 1,
                edges: vec![],
            })),
            "coloring colors",
            MAX_COLORING_VERTICES,
        ),
        (
            Kernel::Family(FamilyKernel::Qubo(QuboSpec {
                n_vars: MAX_QUBO_VARS + 1,
                linear: vec![],
                quadratic: vec![],
            })),
            "qubo variables",
            MAX_QUBO_VARS,
        ),
        (
            sat_over(MAX_SAT_VARS + 1),
            "formula variables",
            MAX_SAT_VARS,
        ),
        (
            Kernel::Factor {
                n: MAX_FACTOR_N + 1,
            },
            "factor n",
            MAX_FACTOR_N as usize,
        ),
    ];
    for (kernel, field, cap) in cases {
        assert!(kernel.validate().is_err(), "{field}");
        match encode_request(&submit(kernel)) {
            Err(WireError::TooLarge { context, len, max }) => {
                assert_eq!((context, len, max), (field, cap as u64 + 1, cap as u64));
            }
            other => panic!("{field}: {other:?}"),
        }
    }
    let results = [
        (
            FamilyResult::Coloring {
                colors: vec![0; MAX_COLORING_VERTICES + 1],
                conflicts: 0,
            },
            "coloring result colors",
        ),
        (
            FamilyResult::Qubo {
                bits: vec![false; MAX_QUBO_VARS + 1],
                energy: 0.0,
            },
            "qubo result bits",
        ),
    ];
    for (result, field) in results {
        assert!(matches!(
            encode_kernel_result(&KernelResult::Family(result)),
            Err(WireError::TooLarge { context, .. }) if context == field
        ));
    }
}

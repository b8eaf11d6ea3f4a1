//! Seeded chaos tests across the full serving stack.
//!
//! The fault-injection counterpart to `net_serving.rs`: every test here
//! runs the real TCP stack (or the runtime under it) with a
//! [`FaultPlan`] installed and asserts the failure-handling contract —
//! every submitted job resolves to a *typed* outcome (no hangs, no
//! panics, no dropped sockets), fault/reroute counters are exact, and
//! the same plan seed reproduces the same outcomes byte-for-byte.

use accel::accelerator::{Accelerator, CpuBackend};
use accel::fault::{FaultPlan, FaultSpec};
use accel::host::{QuarantinePolicy, RetryPolicy};
use accel::kernel::Kernel;
use rebooting_models::workload::{
    coloring_heavy_workload, digest, job_seeds, mixed_workload, qubo_heavy_workload,
};
use runtime::{DispatchPolicy, JobOptions, JobOutcome, Runtime, RuntimeConfig, RuntimeStats};
use server::{Client, Server, ServerConfig, SubmitOptions};
use std::net::TcpStream;
use std::time::Duration;
use wire::{encode_request, write_frame, ChaosStream, Request, StreamFault, WireOutcome};

/// Three distinct fault-plan seeds, per the acceptance criteria. Each
/// drives a different chaos schedule; all must resolve cleanly.
const CHAOS_SEEDS: [u64; 3] = [11, 29, 47];
/// Master seed for the workload itself (kernels and job seeds).
const MASTER_SEED: u64 = 404;
const JOBS: usize = 24;

/// The bytes that must be identical across reruns and transports.
fn job_fingerprint(outcome: &JobOutcome) -> Vec<u8> {
    WireOutcome::from(outcome).fingerprint().expect("encodable")
}

fn chaos_runtime_config(plan_seed: u64, workers: usize) -> RuntimeConfig {
    RuntimeConfig {
        workers,
        queue_capacity: 64,
        policy: DispatchPolicy::PreferSpecialized,
        seed: MASTER_SEED,
        faults: Some(FaultPlan::chaos(plan_seed)),
        retry: RetryPolicy::no_backoff(2),
        // Quarantine is history-dependent (it looks at consecutive-fault
        // streaks per worker), so byte-for-byte reproducibility across
        // worker counts requires it off. Its own determinism is covered
        // by `quarantine_isolates_dead_backend_and_probes_for_recovery`.
        quarantine: QuarantinePolicy::disabled(),
        ..RuntimeConfig::default()
    }
}

/// Runs the full TCP stack under a chaos plan: `clients` concurrent
/// connections submit the given workload to a `workers`-wide server.
/// Returns the per-job fingerprints (workload order) and the server's
/// stats snapshot taken after every job settled.
fn chaos_over_tcp(
    workload: &[Kernel],
    seeds: &[u64],
    plan_seed: u64,
    clients: usize,
    workers: usize,
) -> (Vec<Vec<u8>>, RuntimeStats) {
    let jobs = workload.len();
    let server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        max_connections: clients + 2,
        runtime: chaos_runtime_config(plan_seed, workers),
    })
    .expect("server must start under a fault plan");
    let addr = server.local_addr();

    let mut prints: Vec<Option<Vec<u8>>> = vec![None; jobs];
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("client connects");
                    let mine: Vec<usize> = (0..jobs).filter(|i| i % clients == c).collect();
                    let tickets: Vec<(usize, u64)> = mine
                        .iter()
                        .map(|&i| {
                            let options = SubmitOptions::with_seed(seeds[i]);
                            (i, client.submit(workload[i].clone(), options).unwrap())
                        })
                        .collect();
                    tickets
                        .into_iter()
                        .map(|(i, ticket)| {
                            // `wait` returning at all IS the typed-outcome
                            // guarantee: no hang, no dropped socket.
                            let outcome = client.wait(ticket).expect("typed outcome");
                            (i, outcome.fingerprint().expect("encodable"))
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for handle in handles {
            for (i, fp) in handle.join().expect("client thread must not panic") {
                prints[i] = Some(fp);
            }
        }
    });

    // Fault counters travel the stats row.
    let mut probe = Client::connect(addr).expect("stats probe connects");
    let stats = probe.stats().expect("stats over the wire");
    drop(probe);
    let _ = server.shutdown();
    (prints.into_iter().map(Option::unwrap).collect(), stats)
}

/// Replays the same workload on a 1-worker runtime directly (no sockets)
/// under the same plan — the deterministic baseline.
fn chaos_direct(
    workload: &[Kernel],
    seeds: &[u64],
    plan_seed: u64,
) -> (Vec<Vec<u8>>, RuntimeStats) {
    let rt = Runtime::start(chaos_runtime_config(plan_seed, 1)).expect("runtime");
    let handles: Vec<_> = workload
        .iter()
        .zip(seeds)
        .map(|(kernel, &seed)| {
            rt.submit_with(kernel.clone(), JobOptions::with_seed(seed))
                .expect("submit")
        })
        .collect();
    let prints = handles.iter().map(|h| job_fingerprint(&h.wait())).collect();
    (prints, rt.shutdown())
}

#[test]
fn seeded_chaos_resolves_reproduces_and_matches_direct_baseline() {
    let workload = mixed_workload(JOBS, MASTER_SEED).expect("workload");
    let seeds = job_seeds(JOBS, MASTER_SEED);
    for plan_seed in CHAOS_SEEDS {
        // Two independent server runs with *different* topologies, plus a
        // direct no-socket replay: fault decisions are pure functions of
        // (plan seed, backend, job seed), so all three must agree.
        let (first, stats_a) = chaos_over_tcp(&workload, &seeds, plan_seed, 3, 3);
        let (second, stats_b) = chaos_over_tcp(&workload, &seeds, plan_seed, 2, 4);
        let (direct, stats_c) = chaos_direct(&workload, &seeds, plan_seed);

        assert_eq!(
            first, second,
            "seed {plan_seed}: same plan seed must reproduce identical outcomes byte-for-byte"
        );
        assert_eq!(
            first, direct,
            "seed {plan_seed}: TCP outcomes must match the direct single-worker baseline"
        );

        // The chaos plan never permanently faults the CPU, so with
        // failover in place every job still completes.
        for (i, fp) in first.iter().enumerate() {
            assert_eq!(
                fp[0], 0,
                "seed {plan_seed}: job {i} must complete, got tag {}",
                fp[0]
            );
        }

        // Counters are nonzero (chaos really fired) and exact: identical
        // across topologies and transports.
        assert!(
            stats_a.backend_faults > 0,
            "seed {plan_seed}: chaos run must record injected faults"
        );
        assert!(
            stats_a.retries > 0,
            "seed {plan_seed}: transient bursts must record retries"
        );
        for (label, other) in [("second TCP run", &stats_b), ("direct replay", &stats_c)] {
            assert_eq!(
                stats_a.backend_faults, other.backend_faults,
                "seed {plan_seed}: fault count must be exact vs {label}"
            );
            assert_eq!(
                stats_a.retries, other.retries,
                "seed {plan_seed}: retry count must be exact vs {label}"
            );
            assert_eq!(
                stats_a.reroutes, other.reroutes,
                "seed {plan_seed}: reroute count must be exact vs {label}"
            );
        }
        assert_eq!(stats_a.completed, JOBS as u64);
        assert_eq!(stats_a.settled(), JOBS as u64);
    }
}

#[test]
fn chaos_digest_is_pinned_across_commits() {
    // The tests above compare runs within one build; this literal compares
    // builds. Results and fault decisions are pure functions of their
    // seeds, so a moved digest means a backend computes something else or
    // a fault decision changed — a bug, not a number to regenerate. It
    // moved once, for protocol 8's one-byte family tag, with all 48
    // decoded results unchanged.
    const PINNED: u64 = 0x15d6_e0ab_ad8d_9c79;
    let workload = mixed_workload(48, 2019).expect("workload");
    let seeds = job_seeds(48, 2019);
    let (over_tcp, tcp_stats) = chaos_over_tcp(&workload, &seeds, 29, 3, 3);
    let (direct, direct_stats) = chaos_direct(&workload, &seeds, 29);
    assert_eq!(digest(&over_tcp), PINNED, "over the wire");
    assert_eq!(digest(&direct), PINNED, "direct 1-worker replay");
    assert_eq!(tcp_stats.backend_faults, 35);
    assert_eq!(direct_stats.backend_faults, 35);
}

#[test]
fn chaos_byte_replay_covers_mixed_legacy_and_family_frames() {
    // The later families (coloring and QUBO) and the legacy kernels share
    // every chaotic connection in one seeded stream. The same plan seed
    // must reproduce every outcome byte-for-byte across topologies, and
    // the direct no-socket replay must agree — the family registry adds
    // no nondeterminism to the failure-handling contract.
    let mut workload = coloring_heavy_workload(16, MASTER_SEED).expect("coloring workload");
    workload.extend(qubo_heavy_workload(16, MASTER_SEED).expect("qubo workload"));
    let seeds = job_seeds(workload.len(), MASTER_SEED);
    let family = workload
        .iter()
        .filter(|k| matches!(k, Kernel::Family(_)))
        .count();
    assert!(
        family > 0 && family < workload.len(),
        "the stream must mix later-family and legacy frames"
    );

    let plan_seed = 29;
    let (first, stats_a) = chaos_over_tcp(&workload, &seeds, plan_seed, 3, 3);
    let (second, _) = chaos_over_tcp(&workload, &seeds, plan_seed, 2, 4);
    let (direct, stats_c) = chaos_direct(&workload, &seeds, plan_seed);

    assert_eq!(
        first, second,
        "same plan seed must reproduce the mixed-frame stream byte-for-byte"
    );
    assert_eq!(
        first, direct,
        "TCP outcomes for the mixed-frame stream must match the direct baseline"
    );
    for (i, fp) in first.iter().enumerate() {
        assert_eq!(fp[0], 0, "job {i} must complete, got tag {}", fp[0]);
    }
    assert!(
        stats_a.backend_faults > 0,
        "the chaos plan must actually fire on the mixed-frame stream"
    );
    assert_eq!(
        stats_a.backend_faults, stats_c.backend_faults,
        "fault count must be exact across transports"
    );
}

#[test]
fn wall_clock_deadlines_never_leak_into_results() {
    // The runtime's audited `Instant::now()` sites — queue-time/deadline
    // stamping in `prepare`, the pickup deadline check in `serve_one`,
    // and the caller-side `wait_timeout` deadline — carry
    // `#[expect(clippy::disallowed_methods)]` attributes on the claim that
    // their readings never feed a job result. This run exercises exactly those
    // paths (generous per-job timeouts plus `wait_timeout` polling) and
    // holds the claim to byte-for-byte agreement across two replays.
    let run = || {
        let workload = mixed_workload(JOBS, MASTER_SEED).expect("workload");
        let seeds = job_seeds(JOBS, MASTER_SEED);
        let rt = Runtime::start(chaos_runtime_config(13, 1)).expect("runtime");
        let handles: Vec<_> = workload
            .iter()
            .zip(&seeds)
            .map(|(kernel, &seed)| {
                let options = JobOptions {
                    timeout: Some(Duration::from_secs(60)),
                    seed: Some(seed),
                    policy: None,
                };
                rt.submit_with(kernel.clone(), options).expect("submit")
            })
            .collect();
        let prints: Vec<Vec<u8>> = handles
            .iter()
            .map(|handle| {
                let outcome = loop {
                    if let Some(o) = handle.wait_timeout(Duration::from_millis(20)) {
                        break o;
                    }
                };
                job_fingerprint(&outcome)
            })
            .collect();
        let _ = rt.shutdown();
        prints
    };
    let first = run();
    let second = run();
    assert_eq!(
        first, second,
        "wall-clock deadline stamping must not influence outcomes"
    );
    for (i, fp) in first.iter().enumerate() {
        assert_eq!(fp[0], 0, "job {i}: a 60s budget must never time out");
    }
}

#[test]
fn at_least_one_chaos_seed_exercises_failover() {
    // The per-seed test above asserts exactness; this one pins the
    // tentpole claim that the planner actually *fails over* under the
    // checked-in seeds, not merely retries in place.
    let workload = mixed_workload(JOBS, MASTER_SEED).expect("workload");
    let seeds = job_seeds(JOBS, MASTER_SEED);
    let total_reroutes: u64 = CHAOS_SEEDS
        .iter()
        .map(|&seed| chaos_direct(&workload, &seeds, seed).1.reroutes)
        .sum();
    assert!(
        total_reroutes > 0,
        "across seeds {CHAOS_SEEDS:?} the planner must reroute at least once"
    );
}

#[test]
fn transient_fault_counters_are_analytically_exact() {
    // A single-CPU pool with a guaranteed transient burst of 1..=3 on
    // every job and a retry budget of 2: bursts of length <= 2 recover on
    // the same backend; bursts of 3 exhaust the budget and, with nowhere
    // to fail over, surface as a typed `Failed`. Every counter is then a
    // pure function of the plan — computed here without running anything.
    let plan = FaultPlan::new(71).with_backend("cpu", FaultSpec::transient(1.0, 3));
    let seeds: Vec<u64> = (100..130).collect();

    let (mut want_faults, mut want_retries, mut want_failed) = (0u64, 0u64, 0u64);
    for &seed in &seeds {
        let burst = u64::from(plan.decision("cpu", seed).transient_attempts);
        assert!(burst >= 1, "rate-1.0 spec must always inject");
        if burst <= 2 {
            want_faults += burst;
            want_retries += burst;
        } else {
            want_faults += 3; // initial attempt + 2 retries, all faulted
            want_retries += 2;
            want_failed += 1;
        }
    }
    assert!(want_failed > 0, "seed choice must exercise exhaustion");
    assert!(
        want_failed < seeds.len() as u64,
        "seed choice must exercise recovery"
    );

    let config = RuntimeConfig {
        workers: 1,
        queue_capacity: 64,
        policy: DispatchPolicy::CpuOnly,
        seed: 9,
        faults: Some(plan),
        retry: RetryPolicy::no_backoff(2),
        quarantine: QuarantinePolicy::disabled(),
        ..RuntimeConfig::default()
    };
    let rt = Runtime::with_backend_factory(config, |seed| {
        Ok(vec![Box::new(CpuBackend::new(seed)) as Box<dyn Accelerator>])
    })
    .expect("runtime");

    let handles: Vec<_> = seeds
        .iter()
        .map(|&seed| {
            rt.submit_with(
                Kernel::Compare { x: 0.25, y: 0.75 },
                JobOptions::with_seed(seed),
            )
            .expect("submit")
        })
        .collect();
    let mut failed = 0u64;
    for handle in handles {
        match handle.wait() {
            JobOutcome::Completed { backend, .. } => assert_eq!(backend, "cpu"),
            JobOutcome::Failed(msg) => {
                failed += 1;
                assert!(
                    msg.contains("device fault"),
                    "failure must carry the typed device-fault detail, got: {msg}"
                );
            }
            other => panic!("unexpected outcome {other:?}"),
        }
    }

    let stats = rt.shutdown();
    assert_eq!(failed, want_failed);
    assert_eq!(
        stats.backend_faults, want_faults,
        "fault counter must be exact"
    );
    assert_eq!(stats.retries, want_retries, "retry counter must be exact");
    assert_eq!(stats.failed, want_failed);
    assert_eq!(stats.completed, seeds.len() as u64 - want_failed);
    assert_eq!(
        stats.reroutes, 0,
        "a one-backend pool has nowhere to reroute"
    );
    assert_eq!(stats.per_backend["cpu"].faults, want_faults);
}

#[test]
fn quarantine_isolates_dead_backend_and_probes_for_recovery() {
    // The quantum backend faults permanently on every attempt. With a
    // threshold of 2 and a probe interval of 4, a 10-job sequential run
    // has an exactly predictable shape: jobs 1-2 fault on quantum and
    // trip the quarantine, jobs 3-5 skip it outright, jobs 6 and 10 are
    // recovery probes (which fault again); every job completes on the CPU.
    let plan = FaultPlan::new(9).with_backend("quantum", FaultSpec::permanent(1.0));
    let config = RuntimeConfig {
        workers: 1,
        queue_capacity: 16,
        policy: DispatchPolicy::PreferSpecialized,
        seed: 2,
        faults: Some(plan),
        retry: RetryPolicy::no_backoff(0),
        quarantine: QuarantinePolicy {
            threshold: 2,
            probe_interval: 4,
        },
        ..RuntimeConfig::default()
    };
    let rt = Runtime::start(config).expect("runtime");
    for i in 0..10u64 {
        // Sequential submission keeps the quarantine history exact.
        let outcome = rt
            .submit_with(Kernel::Factor { n: 21 }, JobOptions::with_seed(1_000 + i))
            .expect("submit")
            .wait();
        match outcome {
            JobOutcome::Completed { backend, .. } => {
                assert_eq!(backend, "cpu", "job {i}: must fail over to the CPU");
            }
            other => panic!("job {i}: unexpected outcome {other:?}"),
        }
    }
    let stats = rt.shutdown();
    assert_eq!(stats.completed, 10);
    assert_eq!(
        stats.per_backend["quantum"].faults, 4,
        "jobs 1, 2 + probes 6, 10"
    );
    assert_eq!(stats.backend_faults, 4);
    assert_eq!(stats.quarantine_events, 1);
    assert_eq!(stats.recovery_probes, 2);
    assert_eq!(stats.reroutes, 10, "every job diverted away from quantum");
}

#[test]
fn seeded_hostile_streams_cannot_take_down_the_server() {
    // Sixteen connections each complete a real handshake, then push a
    // valid Submit frame through a seeded transport fault: truncation
    // mid-frame, connection reset mid-frame, or byte-dribbling reads.
    // Whatever the schedule, the server must keep serving honest clients.
    let server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        max_connections: 8,
        runtime: RuntimeConfig {
            workers: 1,
            queue_capacity: 64,
            policy: DispatchPolicy::PreferSpecialized,
            seed: 7,
            ..RuntimeConfig::default()
        },
    })
    .expect("server must start");
    let addr = server.local_addr();

    for seed in 0..16u64 {
        let mut raw = TcpStream::connect(addr).expect("tcp connect");
        raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        wire::handshake(&mut raw).expect("handshake");

        let submit = encode_request(&Request::Submit {
            request_id: 1,
            timeout_ms: None,
            seed: Some(seed),
            policy: None,
            kernel: Kernel::Factor { n: 15 },
        })
        .unwrap();
        let mut framed = Vec::new();
        write_frame(&mut framed, &submit).unwrap();

        let fault = StreamFault::seeded(seed, framed.len());
        let mut chaotic = ChaosStream::new(raw, fault);
        // Truncation swallows silently; disconnection errors locally.
        // Either way the server sees a damaged or partial frame and must
        // survive the subsequent hangup.
        let _ = std::io::Write::write_all(&mut chaotic, &framed);
        let _ = std::io::Write::flush(&mut chaotic);
        drop(chaotic);
    }

    // After all that abuse, a well-behaved client still gets full service.
    let mut client = Client::connect(addr).expect("honest client connects");
    client.ping(0xCAFE).expect("server still answers pings");
    assert!(client
        .run(Kernel::Factor { n: 15 }, SubmitOptions::with_seed(1))
        .expect("server still executes jobs")
        .is_completed());
    drop(client);
    let _ = server.shutdown();
}

#[test]
fn client_reconnects_and_classifies_disconnects() {
    let server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        max_connections: 4,
        runtime: RuntimeConfig {
            workers: 1,
            queue_capacity: 16,
            policy: DispatchPolicy::PreferSpecialized,
            seed: 7,
            ..RuntimeConfig::default()
        },
    })
    .expect("server must start");

    let mut client = Client::connect(server.local_addr()).expect("connect");
    assert!(client
        .run(Kernel::Factor { n: 15 }, SubmitOptions::with_seed(1))
        .unwrap()
        .is_completed());

    // Drop the link and redial the remembered peer: the fresh connection
    // redoes the handshake and serves as if nothing happened.
    client.reconnect().expect("reconnect to the same server");
    assert!(client
        .run(Kernel::Factor { n: 21 }, SubmitOptions::with_seed(2))
        .unwrap()
        .is_completed());

    // Once the server is gone, the next request dies with an error the
    // caller can classify as a disconnect (and hence retry/redial) rather
    // than a protocol failure.
    let _ = server.shutdown();
    let err = client.ping(5).expect_err("server is gone");
    assert!(
        err.is_disconnect(),
        "expected a disconnect class, got: {err}"
    );
}

#[test]
fn worker_stalls_and_queue_pressure_never_hang_or_drop_jobs() {
    // Every job stalls its worker, the queue is tiny, and submission uses
    // the non-blocking path: some jobs are rejected with a typed error at
    // submit time, and every accepted job still settles. Nothing hangs,
    // nothing is silently dropped, and the books balance exactly.
    let plan = FaultPlan::new(5).with_worker_stall(1.0, Duration::from_millis(2));
    let config = RuntimeConfig {
        workers: 2,
        queue_capacity: 4,
        policy: DispatchPolicy::CpuOnly,
        seed: 3,
        faults: Some(plan),
        quarantine: QuarantinePolicy::disabled(),
        ..RuntimeConfig::default()
    };
    let rt = Runtime::with_backend_factory(config, |seed| {
        Ok(vec![Box::new(CpuBackend::new(seed)) as Box<dyn Accelerator>])
    })
    .expect("runtime");

    let mut accepted = Vec::new();
    let mut rejected = 0u64;
    for i in 0..40u64 {
        match rt.try_submit_with(Kernel::Compare { x: 0.1, y: 0.9 }, JobOptions::with_seed(i)) {
            Ok(handle) => accepted.push(handle),
            Err(runtime::SubmitError::QueueFull) => rejected += 1,
            Err(other) => panic!("unexpected submit error {other}"),
        }
    }
    assert!(
        rejected > 0,
        "stalled workers plus a 4-deep queue must shed load"
    );
    for handle in &accepted {
        match handle.wait() {
            JobOutcome::Completed { .. } => {}
            other => panic!("accepted job must complete, got {other:?}"),
        }
    }
    let stats = rt.shutdown();
    assert_eq!(stats.submitted, accepted.len() as u64);
    assert_eq!(stats.rejected, rejected);
    assert_eq!(stats.completed, accepted.len() as u64);
    assert_eq!(stats.settled(), accepted.len() as u64);
}

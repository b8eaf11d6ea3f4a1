//! End-to-end cluster tests: a consistent-hash router in front of real
//! `server::Server` shards over real sockets — key affinity and shard-
//! local cache hits, byte-equality with a direct single-runtime run,
//! shard death with drain/quarantine/re-route, probe-driven rejoin, and
//! a seeded chaos digest that must replay byte-for-byte.

use accel::backends::standard_pool;
use accel::fault::FaultPlan;
use accel::host::{DispatchRequest, HostRuntime, QuarantinePolicy};
use accel::kernel::Kernel;
use cluster::{Router, RouterConfig, RouterError, ShardStatus};
use numerics::hash::Fnv1a;
use rebooting_models::workload::{job_seeds, mixed_workload};
use runtime::{DispatchPolicy, JobOptions, RuntimeConfig};
use server::{Server, ServerConfig};
use std::net::{SocketAddr, TcpListener};
use std::time::{Duration, Instant};
use wire::WireOutcome;

const MASTER_SEED: u64 = 2019;

fn shard_server(workers: usize) -> Server {
    Server::start(shard_config(workers)).expect("shard must start")
}

fn shard_config(workers: usize) -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".into(),
        max_connections: 8,
        runtime: RuntimeConfig {
            workers,
            queue_capacity: 64,
            policy: DispatchPolicy::PreferSpecialized,
            seed: 7,
            ..RuntimeConfig::default()
        },
    }
}

fn router_config() -> RouterConfig {
    RouterConfig {
        quarantine: QuarantinePolicy {
            threshold: 1,
            probe_interval: 2,
        },
        seed: MASTER_SEED,
        ..RouterConfig::default()
    }
}

/// A duplicate-heavy seeded mix: `distinct` canonical kernels, each
/// submitted with the same per-kernel seed every time it repeats — the
/// shape shard-local result caches exist for.
fn duplicate_heavy(total: usize, distinct: usize) -> Vec<(Kernel, u64)> {
    let kernels = mixed_workload(distinct, MASTER_SEED).unwrap();
    let seeds = job_seeds(distinct, MASTER_SEED);
    (0..total)
        .map(|i| (kernels[i % distinct].clone(), seeds[i % distinct]))
        .collect()
}

/// The result bytes of an outcome, independent of which shard (and which
/// wall-clock) produced it. Results are pure functions of
/// `(canonical kernel, seed, policy)`, so this is the cross-placement
/// identity the determinism contract promises.
fn result_bytes(outcome: &WireOutcome) -> String {
    match outcome {
        WireOutcome::Completed { result, .. } => format!("ok:{result:?}"),
        WireOutcome::Failed(msg) => format!("failed:{msg}"),
        WireOutcome::TimedOut => "timed-out".to_owned(),
        WireOutcome::Cancelled => "cancelled".to_owned(),
    }
}

/// FNV-1a over `(ticket, result bytes)` pairs — the chaos-replay digest.
fn digest(outcomes: &[(u64, WireOutcome)]) -> u64 {
    let mut h = Fnv1a::new();
    for (ticket, outcome) in outcomes {
        h.u64(*ticket);
        h.bytes(result_bytes(outcome).as_bytes());
    }
    h.finish()
}

/// Reserves a port that is free right now and has never carried a
/// connection (so no TIME_WAIT) — used to stand up a shard address that
/// starts dead and comes alive later.
fn reserve_addr() -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    listener.local_addr().unwrap()
}

#[test]
fn duplicate_heavy_mix_keeps_key_affinity_and_hits_shard_caches() {
    let shards = [shard_server(2), shard_server(2)];
    let addrs: Vec<SocketAddr> = shards.iter().map(Server::local_addr).collect();
    let mut router = Router::connect(&addrs, router_config()).unwrap();

    let mix = duplicate_heavy(32, 8);
    let mut tickets = Vec::new();
    for (kernel, seed) in &mix {
        let options = JobOptions::with_seed(*seed);
        // Affinity, checked pre-flight: every repeat of a kernel must
        // preview to the same shard.
        let preview = router.route_for(kernel, &options).unwrap();
        let ticket = router.submit_blocking(kernel.clone(), options).unwrap();
        tickets.push((ticket, kernel.clone(), *seed, preview));
    }
    let mut previews: std::collections::BTreeMap<String, u32> = std::collections::BTreeMap::new();
    for (_, kernel, _, shard) in &tickets {
        let key = format!("{kernel:?}");
        if let Some(prev) = previews.insert(key, *shard) {
            assert_eq!(prev, *shard, "one kernel previewed two shards");
        }
    }

    let mut outcomes = Vec::new();
    for (ticket, ..) in &tickets {
        outcomes.push((*ticket, router.wait(*ticket).unwrap()));
    }
    for (_, outcome) in &outcomes {
        assert!(
            matches!(outcome, WireOutcome::Completed { .. }),
            "unexpected {outcome:?}"
        );
    }

    // 32 submissions of 8 distinct (kernel, seed) pairs: all but the
    // first occurrence of each must be served by admission (cache hit,
    // or coalesced onto an in-flight duplicate) — which only works if
    // the ring kept each kernel's repeats on one shard's cache.
    let stats = router.stats().unwrap();
    assert_eq!(stats.merged.submitted, 32);
    let deduped = stats.merged.cache_hits + stats.merged.coalesced;
    assert_eq!(deduped, 24, "{:?}", stats.merged);
    assert_eq!(stats.per_shard.len(), 2, "both shards must answer stats");

    // Byte-equality with 32 cold executions below the serving stack, not
    // with a second cache: each job's canonical kernel, as a shard admits
    // it, dispatched with the job's seed on a pool like a worker's.
    let mut host = HostRuntime::new(DispatchPolicy::PreferSpecialized);
    for backend in standard_pool(0).unwrap() {
        host.register(backend);
    }
    for ((_, cluster_outcome), (kernel, seed)) in outcomes.iter().zip(&mix) {
        let request = DispatchRequest {
            reseed: Some(*seed),
            ..DispatchRequest::default()
        };
        let report = host
            .dispatch_planned(&admission::admit(kernel).0, &request)
            .unwrap();
        let cold = WireOutcome::Completed {
            backend: report.backend,
            result: report.execution.result,
            cost: report.execution.cost,
            wall_nanos: 0,
        };
        assert_eq!(
            result_bytes(cluster_outcome),
            result_bytes(&cold),
            "cluster and cold runs disagree on {kernel:?}"
        );
    }

    drop(router);
    for shard in shards {
        let _ = shard.shutdown();
    }
}

#[test]
fn full_window_surfaces_busy_and_submit_blocking_rides_it_out() {
    // Every job stalls its worker 100 ms before it runs, so the first
    // submission is still in flight when the second arrives, however fast
    // the factoring itself is (a few ms for this job).
    let mut config = shard_config(1);
    config.runtime.faults =
        Some(FaultPlan::new(MASTER_SEED).with_worker_stall(1.0, Duration::from_millis(100)));
    let shard = Server::start(config).expect("shard must start");
    let mut router = Router::connect(
        &[shard.local_addr()],
        RouterConfig {
            window: 1,
            ..router_config()
        },
    )
    .unwrap();

    // Distinct seeds so the second submission cannot be served by the
    // cache or coalesced — it must actually contend for the window.
    let first = router
        .submit(Kernel::Factor { n: 77 }, JobOptions::with_seed(1))
        .unwrap();
    let second = router.submit(Kernel::Factor { n: 77 }, JobOptions::with_seed(2));
    assert!(
        matches!(second, Err(RouterError::Busy)),
        "window of 1 must refuse a second in-flight submission: {second:?}"
    );
    let second = router
        .submit_blocking(Kernel::Factor { n: 77 }, JobOptions::with_seed(2))
        .unwrap();
    assert!(matches!(
        router.wait(first).unwrap(),
        WireOutcome::Completed { .. }
    ));
    assert!(matches!(
        router.wait(second).unwrap(),
        WireOutcome::Completed { .. }
    ));
    drop(router);
    let _ = shard.shutdown();
}

/// The median of `n` timed calls of `round_trip`.
fn median_round_trip(n: usize, mut round_trip: impl FnMut()) -> Duration {
    let mut times: Vec<Duration> = (0..n)
        .map(|_| {
            let start = Instant::now();
            round_trip();
            start.elapsed()
        })
        .collect();
    times.sort_unstable();
    times[n / 2]
}

#[test]
fn a_serial_cached_round_trip_through_the_router_pays_no_poll_floor() {
    // Router link wait and shard loop both block in `poll(2)`, so a
    // cache hit costs two loopback hops and a lookup: tens of µs. A
    // loop or link that slept in 1 ms slices put the median near 1.1 ms.
    // Neighbouring tests share the CPU and can only slow a batch, so the
    // best of up to five batches is held to the bound.
    let shard = shard_server(1);
    let mut router = Router::connect(&[shard.local_addr()], router_config()).unwrap();
    let kernel = Kernel::Compare { x: 0.25, y: 0.75 };
    let mut cached_round_trip = || {
        let ticket = router
            .submit_blocking(kernel.clone(), JobOptions::with_seed(5))
            .unwrap();
        assert!(router.wait(ticket).unwrap().is_completed());
    };
    cached_round_trip();
    let floor = Duration::from_micros(400);
    let mut medians = Vec::new();
    while medians.len() < 5 && medians.last().is_none_or(|m| *m >= floor) {
        medians.push(median_round_trip(100, &mut cached_round_trip));
    }
    assert!(
        medians.last().is_some_and(|m| *m < floor),
        "median cached round trips per batch: {medians:?}"
    );
    drop(router);
    let stats = shard.shutdown();
    assert_eq!(stats.submitted, stats.cache_hits + 1, "{stats:?}");
}

#[test]
fn shard_death_mid_run_drains_quarantines_and_reroutes() {
    // Every job stalls its worker 40 ms before it runs, so the four jobs
    // that occupy the doomed shard outlast the 50 ms before the next
    // submissions, however fast the factoring itself is.
    let stalled = || {
        let mut config = shard_config(1);
        config.runtime.faults =
            Some(FaultPlan::new(MASTER_SEED).with_worker_stall(1.0, Duration::from_millis(40)));
        Some(Server::start(config).expect("shard must start"))
    };
    let mut shards = vec![stalled(), stalled()];
    let addrs: Vec<SocketAddr> = shards
        .iter()
        .map(|s| s.as_ref().unwrap().local_addr())
        .collect();
    let mut router = Router::connect(&addrs, router_config()).unwrap();

    // One kernel, so every seed is keyed to the same shard.
    let slow = Kernel::Factor { n: 77 };
    let doomed = router
        .route_for(&slow, &JobOptions::with_seed(1))
        .expect("slow kernel must route somewhere");

    // Occupy the doomed shard: distinct seeds defeat the cache, one
    // worker serializes them, so the shard drains for a while.
    let mut tickets = Vec::new();
    for seed in 1..=4u64 {
        tickets.push(
            router
                .submit_blocking(slow.clone(), JobOptions::with_seed(seed))
                .unwrap(),
        );
    }

    // Kill it mid-run (graceful: drains in-flight jobs, refuses new ones).
    let dying = shards[doomed as usize].take().unwrap();
    let killer = std::thread::spawn(move || dying.shutdown());
    // Give the drain a moment to engage so the next submissions land in
    // the window where the shard refuses (or has closed) — either way
    // they must re-route.
    std::thread::sleep(Duration::from_millis(50));

    // Keep submitting into the drain window: these are refused with
    // ShuttingDown and must transparently re-route, keeping their tickets.
    for seed in 5..=10u64 {
        tickets.push(
            router
                .submit_blocking(slow.clone(), JobOptions::with_seed(seed))
                .unwrap(),
        );
    }
    for &ticket in &tickets {
        let outcome = router.wait(ticket).unwrap();
        assert!(
            matches!(outcome, WireOutcome::Completed { .. }),
            "ticket {ticket} lost to the shard death: {outcome:?}"
        );
    }
    killer.join().unwrap();

    // The dead shard is gone from routing and marked unhealthy...
    assert!(!router.connected().contains(&doomed));
    let health = router.health().get(doomed).unwrap();
    assert_ne!(health.status, ShardStatus::Alive, "{health:?}");
    // ...new work for its keys re-homes to the survivor...
    let rehomed = router
        .route_for(&slow, &JobOptions::with_seed(1))
        .expect("survivor must take over");
    assert_ne!(rehomed, doomed);
    // ...and at least the post-shutdown submissions were re-routed.
    assert!(
        router.reroutes() > 0,
        "the drain window must have re-routed something"
    );

    drop(router);
    for shard in shards.into_iter().flatten() {
        let _ = shard.shutdown();
    }
}

#[test]
fn quarantined_shard_rejoins_after_a_successful_probe() {
    let alive = shard_server(1);
    let dead_addr = reserve_addr();
    let mut router = Router::connect(&[alive.local_addr(), dead_addr], router_config()).unwrap();

    // Shard 1 was dead on arrival: quarantined, not routable, no link.
    assert_eq!(router.connected(), vec![0]);
    assert_eq!(
        router.health().get(1).unwrap().status,
        ShardStatus::Quarantined
    );

    // The cluster still serves from shard 0 alone.
    let ticket = router
        .submit_blocking(Kernel::Factor { n: 15 }, JobOptions::with_seed(3))
        .unwrap();
    assert!(matches!(
        router.wait(ticket).unwrap(),
        WireOutcome::Completed { .. }
    ));

    // Shard 1 comes up on its reserved address; heartbeat probes are on
    // a deterministic 2-tick cadence, so a handful of ticks must find it.
    let late = Server::start(ServerConfig {
        addr: dead_addr.to_string(),
        max_connections: 8,
        runtime: RuntimeConfig {
            workers: 1,
            seed: 7,
            ..RuntimeConfig::default()
        },
    })
    .expect("late shard must bind its reserved address");
    for _ in 0..4 {
        router.heartbeat();
    }
    assert_eq!(router.connected(), vec![0, 1]);
    assert_eq!(router.health().get(1).unwrap().status, ShardStatus::Alive);

    // And it serves: some canonical key must route to the rejoined shard.
    let kernels = mixed_workload(16, MASTER_SEED).unwrap();
    let routed_to_rejoined = kernels
        .iter()
        .any(|k| router.route_for(k, &JobOptions::with_seed(9)) == Some(1));
    assert!(routed_to_rejoined, "rejoined shard never takes traffic");

    drop(router);
    let _ = alive.shutdown();
    let _ = late.shutdown();
}

#[test]
fn chaos_run_digest_is_reproducible_per_seed() {
    // The whole scenario — duplicate-heavy mix, shard killed mid-run,
    // re-routes — must produce identical (ticket, result-bytes) digests
    // on every replay with the same seed: placement may race, results
    // may arrive in any order, but what each ticket *returns* may not.
    let run = |master_seed: u64| -> u64 {
        let shards = vec![Some(shard_server(1)), Some(shard_server(1))];
        let addrs: Vec<SocketAddr> = shards
            .iter()
            .map(|s| s.as_ref().unwrap().local_addr())
            .collect();
        let mut shards = shards;
        let mut router = Router::connect(
            &addrs,
            RouterConfig {
                seed: master_seed,
                ..router_config()
            },
        )
        .unwrap();

        let kernels = mixed_workload(6, master_seed).unwrap();
        let seeds = job_seeds(6, master_seed);
        let mix: Vec<(Kernel, u64)> = (0..24)
            .map(|i| (kernels[i % 6].clone(), seeds[i % 6]))
            .collect();

        let mut tickets = Vec::new();
        for (i, (kernel, seed)) in mix.iter().enumerate() {
            if i == 12 {
                // Mid-run shard kill; drain overlaps the rest of the mix.
                if let Some(victim) = shards[1].take() {
                    let _ = victim.shutdown();
                }
            }
            tickets.push(
                router
                    .submit_blocking(kernel.clone(), JobOptions::with_seed(*seed))
                    .unwrap(),
            );
        }
        let mut outcomes = Vec::new();
        for ticket in tickets {
            outcomes.push((ticket, router.wait(ticket).unwrap()));
        }
        for (ticket, outcome) in &outcomes {
            assert!(
                matches!(outcome, WireOutcome::Completed { .. }),
                "ticket {ticket}: {outcome:?}"
            );
        }
        let digest = digest(&outcomes);
        drop(router);
        for shard in shards.into_iter().flatten() {
            let _ = shard.shutdown();
        }
        digest
    };

    let first = run(MASTER_SEED);
    let second = run(MASTER_SEED);
    assert_eq!(first, second, "same seed must replay to the same digest");
    let other = run(MASTER_SEED + 1);
    assert_ne!(first, other, "different seeds must explore different runs");
}

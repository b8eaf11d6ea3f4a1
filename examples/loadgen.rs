//! Load generator: concurrent clients hammering the network serving
//! layer, with a cross-wire determinism check.
//!
//! Starts a [`server::Server`] in-process, fans the shared mixed
//! workload out across N client threads (each pipelining its slice over
//! one connection), and reports throughput, a client-side latency
//! histogram, and the server's own statistics. It then replays the
//! identical workload on a direct single-worker [`runtime::Runtime`] and
//! asserts every result matches **byte for byte** — same kernels, same
//! explicit per-job seeds, so transport, concurrency, and scheduling
//! order must not change a single bit of output.
//!
//! Run with: `cargo run --release --example loadgen -- [--clients N]
//! [--jobs N] [--workers N] [--queue N] [--shards N] [--policy P]
//! [--chaos] [--seed N] [--mix M] [--dup-ratio R]` where `P` is one of
//! `prefer-specialized`, `cpu-only`, `min-latency`, `min-energy`, or
//! `deadline`. The policy rides the per-job `Submit` policy field,
//! and when it differs from `prefer-specialized` the run also reports
//! how many jobs the cost-model planner routed differently.
//!
//! `--shards N` (default 1) serves the workload from an N-shard cluster
//! instead of one server: N `server::Server` shards, each client driving
//! a [`cluster::Router`] that consistent-hash-shards keyed submissions
//! across them. The determinism check is unchanged — whatever shard a
//! job lands on (or re-routes to), its bytes must match the direct
//! single-worker replay.
//!
//! `--mix duplicate-heavy` swaps in a workload where a small unique pool
//! of `(kernel, seed)` pairs is resubmitted over and over (`--dup-ratio`
//! controls the duplicate fraction, default 0.9), exercising the
//! admission tier: the run reports the server's cache/coalescing
//! counters and hit rate, asserts the hit rate clears the duplicate
//! ratio, and replays the workload on an admission-*disabled* runtime to
//! prove cached results are byte-identical to cold recomputation.
//!
//! `--mix coloring-heavy` / `--mix qubo-heavy` swap in registry-family
//! workloads: three of every four jobs are phase-dynamics vertex
//! colorings (or Ising/QUBO minimizations) riding the generic family
//! frame, interleaved with legacy kernels on their native frames. The run
//! reports how many jobs used the family frame and the byte-for-byte
//! replay covers both framings on the same connections.
//!
//! `--chaos` installs the stock [`FaultPlan::chaos`] schedule (seeded by
//! `--seed`, default 29) on the server's runtime: backends fault, the
//! dispatcher retries and fails over, and every job must still resolve
//! to a typed outcome that matches the direct single-worker replay under
//! the same plan. The run prints a `chaos digest` — an order-independent
//! fingerprint of every outcome — so two runs with the same seed can be
//! compared byte-for-byte from their stdout alone.

use rebooting_models::workload::{
    coloring_heavy_workload, digest, duplicate_heavy_workload, job_seeds, mixed_workload,
    qubo_heavy_workload,
};
use runtime::stats::LatencyHistogram;
use runtime::{
    AdmissionConfig, DispatchPolicy, FaultPlan, JobOptions, JobOutcome, QuarantinePolicy, Runtime,
    RuntimeConfig,
};
use server::{Client, Server, ServerConfig, SubmitOptions};
use std::time::Instant;
use wire::WireOutcome;

const MASTER_SEED: u64 = 2019;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Mix {
    Mixed,
    DuplicateHeavy,
    ColoringHeavy,
    QuboHeavy,
}

struct Args {
    clients: usize,
    jobs: usize,
    workers: usize,
    queue: usize,
    shards: usize,
    policy: DispatchPolicy,
    chaos: bool,
    chaos_seed: u64,
    mix: Mix,
    dup_ratio: f64,
}

fn parse_policy(name: &str) -> Result<DispatchPolicy, String> {
    match name {
        "prefer-specialized" => Ok(DispatchPolicy::PreferSpecialized),
        "cpu-only" => Ok(DispatchPolicy::CpuOnly),
        "min-latency" => Ok(DispatchPolicy::MinPredictedLatency),
        "min-energy" => Ok(DispatchPolicy::MinPredictedEnergy),
        "deadline" => Ok(DispatchPolicy::DeadlineAware),
        other => Err(format!(
            "unknown policy {other} (expected prefer-specialized, cpu-only, \
             min-latency, min-energy, or deadline)"
        )),
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        clients: 4,
        jobs: 160,
        workers: 4,
        queue: 64,
        shards: 1,
        policy: DispatchPolicy::MinPredictedLatency,
        chaos: false,
        chaos_seed: 29,
        mix: Mix::Mixed,
        dup_ratio: 0.9,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--chaos" {
            args.chaos = true;
            continue;
        }
        let raw = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        if flag == "--policy" {
            args.policy = parse_policy(&raw)?;
            continue;
        }
        if flag == "--seed" {
            args.chaos_seed = raw.parse::<u64>().map_err(|e| format!("{flag}: {e}"))?;
            continue;
        }
        if flag == "--mix" {
            args.mix = match raw.as_str() {
                "mixed" => Mix::Mixed,
                "duplicate-heavy" => Mix::DuplicateHeavy,
                "coloring-heavy" => Mix::ColoringHeavy,
                "qubo-heavy" => Mix::QuboHeavy,
                other => {
                    return Err(format!(
                        "unknown mix {other} (expected mixed, duplicate-heavy, \
                         coloring-heavy, or qubo-heavy)"
                    ))
                }
            };
            continue;
        }
        if flag == "--dup-ratio" {
            let ratio = raw.parse::<f64>().map_err(|e| format!("{flag}: {e}"))?;
            if !(0.0..=1.0).contains(&ratio) {
                return Err(format!("{flag} must be in [0, 1], got {ratio}"));
            }
            args.dup_ratio = ratio;
            continue;
        }
        let value = raw.parse::<usize>().map_err(|e| format!("{flag}: {e}"))?;
        match flag.as_str() {
            "--clients" => args.clients = value,
            "--jobs" => args.jobs = value,
            "--workers" => args.workers = value,
            "--queue" => args.queue = value,
            "--shards" => args.shards = value,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.clients == 0 || args.jobs == 0 || args.workers == 0 || args.queue == 0 {
        return Err("all parameters must be at least 1".into());
    }
    if args.shards == 0 {
        return Err("--shards must be at least 1".into());
    }
    Ok(args)
}

/// What one client thread brings home: `(workload index, outcome
/// fingerprint)` per job, plus its local latency histogram.
type ClientReport = (Vec<(usize, Vec<u8>)>, LatencyHistogram);

/// Runs one client over its round-robin slice of the workload,
/// pipelining every submission before redeeming any ticket. Outside
/// chaos mode every job must complete; under chaos any *typed* outcome
/// is acceptable — hangs and dropped connections are not.
fn run_client(
    addr: std::net::SocketAddr,
    workload: &[accel::kernel::Kernel],
    seeds: &[u64],
    policy: DispatchPolicy,
    chaos: bool,
    client_idx: usize,
    clients: usize,
) -> Result<ClientReport, String> {
    let fail = |e: &dyn std::fmt::Display| format!("client {client_idx}: {e}");
    let mut client = Client::connect(addr).map_err(|e| fail(&e))?;
    let mine: Vec<usize> = (0..workload.len())
        .filter(|i| i % clients == client_idx)
        .collect();
    let started = Instant::now();
    let mut tickets = Vec::with_capacity(mine.len());
    for &i in &mine {
        // The per-job override rides the Submit policy field, so
        // every submission exercises that wire path.
        let options = SubmitOptions::with_seed(seeds[i]).policy(policy);
        let ticket = client
            .submit(workload[i].clone(), options)
            .map_err(|e| fail(&e))?;
        tickets.push((i, ticket));
    }
    let mut results = Vec::with_capacity(mine.len());
    let mut latency = LatencyHistogram::new();
    for (i, ticket) in tickets {
        let outcome = client.wait(ticket).map_err(|e| fail(&e))?;
        match &outcome {
            WireOutcome::Completed { .. } => latency.record(started.elapsed()),
            other if !chaos => return Err(format!("job {i} did not complete: {other:?}")),
            _ => {}
        }
        results.push((i, outcome.fingerprint().map_err(|e| fail(&e))?));
    }
    Ok((results, latency))
}

/// Runs one cluster client over its round-robin slice: a private
/// [`cluster::Router`] over every shard, pipelining submissions up to
/// the router's in-flight window before redeeming tickets.
fn run_cluster_client(
    addrs: &[std::net::SocketAddr],
    workload: &[accel::kernel::Kernel],
    seeds: &[u64],
    policy: DispatchPolicy,
    chaos: bool,
    client_idx: usize,
    clients: usize,
) -> Result<ClientReport, String> {
    let fail = |e: &dyn std::fmt::Display| format!("cluster client {client_idx}: {e}");
    let mut router = cluster::Router::connect(
        addrs,
        cluster::RouterConfig {
            seed: MASTER_SEED,
            ..cluster::RouterConfig::default()
        },
    )
    .map_err(|e| fail(&e))?;
    let mine: Vec<usize> = (0..workload.len())
        .filter(|i| i % clients == client_idx)
        .collect();
    let started = Instant::now();
    let mut tickets = Vec::with_capacity(mine.len());
    for &i in &mine {
        let options = JobOptions {
            seed: Some(seeds[i]),
            policy: Some(policy),
            timeout: None,
        };
        let ticket = router
            .submit_blocking(workload[i].clone(), options)
            .map_err(|e| fail(&e))?;
        tickets.push((i, ticket));
    }
    let mut results = Vec::with_capacity(mine.len());
    let mut latency = LatencyHistogram::new();
    for (i, ticket) in tickets {
        let outcome = router.wait(ticket).map_err(|e| fail(&e))?;
        match &outcome {
            WireOutcome::Completed { .. } => latency.record(started.elapsed()),
            other if !chaos => return Err(format!("job {i} did not complete: {other:?}")),
            _ => {}
        }
        results.push((i, outcome.fingerprint().map_err(|e| fail(&e))?));
    }
    Ok((results, latency))
}

/// `(outcome fingerprint, backend name)` per workload index; the backend
/// is empty for jobs that did not complete.
type DirectResults = Vec<(Vec<u8>, String)>;

/// Replays the workload on a direct single-worker runtime with the same
/// explicit seeds (and, in chaos mode, the same fault plan), returning
/// outcome fingerprints per workload index.
fn run_direct(
    workload: &[accel::kernel::Kernel],
    seeds: &[u64],
    policy: DispatchPolicy,
    faults: Option<FaultPlan>,
    admission: AdmissionConfig,
) -> Result<DirectResults, Box<dyn std::error::Error>> {
    let chaos = faults.is_some();
    let rt = Runtime::start(RuntimeConfig {
        workers: 1,
        queue_capacity: workload.len().max(1),
        policy,
        seed: MASTER_SEED,
        default_timeout: None,
        faults,
        // Quarantine is history-dependent; disabling it keeps routing a
        // pure function of the job, matching the server configuration.
        quarantine: QuarantinePolicy::disabled(),
        admission,
        ..RuntimeConfig::default()
    })?;
    let handles: Vec<_> = workload
        .iter()
        .zip(seeds)
        .map(|(kernel, &seed)| rt.submit_with(kernel.clone(), JobOptions::with_seed(seed)))
        .collect::<Result<_, _>>()?;
    let mut results = Vec::with_capacity(handles.len());
    for (i, handle) in handles.iter().enumerate() {
        let outcome = handle.wait();
        let backend = match &outcome {
            JobOutcome::Completed { backend, .. } => backend.clone(),
            other if !chaos => {
                return Err(format!("direct job {i} did not complete: {other:?}").into())
            }
            _ => String::new(),
        };
        results.push((WireOutcome::from(&outcome).fingerprint()?, backend));
    }
    let _ = rt.shutdown();
    Ok(results)
}

/// The `--shards N` flavor: N shard servers behind per-client routers,
/// then the same direct-replay determinism check as the 1-server path.
fn run_cluster(
    args: &Args,
    workload: &[accel::kernel::Kernel],
    seeds: &[u64],
    plan: Option<FaultPlan>,
) -> Result<(), Box<dyn std::error::Error>> {
    let shards: Vec<Server> = (0..args.shards)
        .map(|_| {
            Server::start(ServerConfig {
                addr: "127.0.0.1:0".into(),
                max_connections: args.clients + 2,
                runtime: RuntimeConfig {
                    workers: args.workers,
                    queue_capacity: args.queue,
                    policy: args.policy,
                    seed: MASTER_SEED,
                    default_timeout: None,
                    faults: plan.clone(),
                    quarantine: QuarantinePolicy::disabled(),
                    ..RuntimeConfig::default()
                },
            })
        })
        .collect::<Result<_, _>>()?;
    let addrs: Vec<std::net::SocketAddr> = shards.iter().map(Server::local_addr).collect();
    println!(
        "loadgen: {} jobs over {} clients against a {}-shard cluster ({} workers/shard, \
         queue {}, policy {:?})",
        args.jobs, args.clients, args.shards, args.workers, args.queue, args.policy
    );
    if args.chaos {
        println!(
            "chaos mode: fault plan seed {} (reproduce with --chaos --seed {})",
            args.chaos_seed, args.chaos_seed
        );
    }
    println!();

    let started = Instant::now();
    let reports: Vec<ClientReport> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..args.clients)
            .map(|c| {
                let addrs = &addrs;
                scope.spawn(move || {
                    run_cluster_client(
                        addrs,
                        workload,
                        seeds,
                        args.policy,
                        args.chaos,
                        c,
                        args.clients,
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("cluster client thread panicked"))
            .collect::<Result<_, _>>()
    })
    .map_err(|e| format!("cluster client failed: {e}"))?;
    let wall = started.elapsed();

    let mut wire_results: Vec<Option<Vec<u8>>> = vec![None; args.jobs];
    let mut latency = LatencyHistogram::new();
    for (results, client_latency) in reports {
        latency.merge(&client_latency);
        for (i, fingerprint) in results {
            wire_results[i] = Some(fingerprint);
        }
    }
    #[allow(clippy::cast_precision_loss)]
    let throughput = args.jobs as f64 / wall.as_secs_f64();
    println!(
        "served {} jobs in {:.3}s  ({throughput:.0} jobs/s across {} shards)",
        args.jobs,
        wall.as_secs_f64(),
        args.shards
    );
    println!("client-side completion latency:");
    for (idx, &count) in latency.counts().iter().enumerate() {
        if count > 0 {
            println!("  {:<8} {count}", LatencyHistogram::bucket_label(idx));
        }
    }

    // One more router for the cluster-wide stats view (and a gossip
    // round, so the gossip frames see traffic on every loadgen run).
    let mut probe = cluster::Router::connect(&addrs, cluster::RouterConfig::default())?;
    probe.gossip_round()?;
    let stats = probe.stats()?;
    println!("\nper-shard admission:");
    for (shard, s) in &stats.per_shard {
        let keyed = s.cache_hits + s.cache_misses + s.coalesced;
        #[allow(clippy::cast_precision_loss)]
        let hit_rate = if keyed == 0 {
            0.0
        } else {
            (s.cache_hits + s.coalesced) as f64 / keyed as f64
        };
        println!(
            "  shard {shard}: {} submitted, {} cache hits + {} coalesced / {} keyed \
             ({:.1}% hit rate)",
            s.submitted,
            s.cache_hits,
            s.coalesced,
            keyed,
            hit_rate * 100.0
        );
    }
    println!("\ncluster stats (all shards merged):\n{}", stats.merged);
    drop(probe);

    let fingerprints: Vec<Vec<u8>> = wire_results
        .iter()
        .map(|o| o.clone().expect("every job must report"))
        .collect();
    if args.chaos {
        println!("chaos digest: {:016x}", digest(&fingerprints));
    }

    println!("replaying on a direct 1-worker runtime to check determinism ...");
    let direct = run_direct(
        workload,
        seeds,
        args.policy,
        plan,
        AdmissionConfig::default(),
    )?;
    for (i, fingerprint) in fingerprints.iter().enumerate() {
        assert_eq!(
            fingerprint, &direct[i].0,
            "job {i}: outcomes must match byte for byte across the cluster"
        );
    }
    println!(
        "cluster ({} shards) and direct (1 worker) runs agree byte-for-byte on all {}/{} outcomes",
        args.shards,
        direct.len(),
        args.jobs
    );
    for shard in shards {
        let _ = shard.shutdown();
    }
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = parse_args().map_err(|e| format!("usage error: {e}"))?;
    let (workload, seeds) = match args.mix {
        Mix::Mixed => (
            mixed_workload(args.jobs, MASTER_SEED)?,
            job_seeds(args.jobs, MASTER_SEED),
        ),
        Mix::DuplicateHeavy => duplicate_heavy_workload(args.jobs, MASTER_SEED, args.dup_ratio)?,
        Mix::ColoringHeavy => (
            coloring_heavy_workload(args.jobs, MASTER_SEED)?,
            job_seeds(args.jobs, MASTER_SEED),
        ),
        Mix::QuboHeavy => (
            qubo_heavy_workload(args.jobs, MASTER_SEED)?,
            job_seeds(args.jobs, MASTER_SEED),
        ),
    };
    let family_jobs = workload
        .iter()
        .filter(|k| matches!(k, accel::kernel::Kernel::Family(_)))
        .count();
    if matches!(args.mix, Mix::ColoringHeavy | Mix::QuboHeavy) {
        assert!(
            family_jobs > 0 && (args.jobs < 4 || family_jobs < args.jobs),
            "a family-heavy mix must interleave family and legacy kernels"
        );
        println!(
            "family mix: {family_jobs}/{} jobs ride the generic family frame, \
             the rest stay on native frames",
            args.jobs
        );
    }
    let plan = args.chaos.then(|| FaultPlan::chaos(args.chaos_seed));

    if args.shards > 1 {
        return run_cluster(&args, &workload, &seeds, plan);
    }

    let server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        max_connections: args.clients + 2,
        runtime: RuntimeConfig {
            workers: args.workers,
            queue_capacity: args.queue,
            policy: args.policy,
            seed: MASTER_SEED,
            default_timeout: None,
            faults: plan.clone(),
            quarantine: QuarantinePolicy::disabled(),
            ..RuntimeConfig::default()
        },
    })?;
    let addr = server.local_addr();
    println!(
        "loadgen: {} jobs over {} clients against {addr} ({} workers, queue {}, policy {:?})",
        args.jobs, args.clients, args.workers, args.queue, args.policy
    );
    if args.chaos {
        println!(
            "chaos mode: fault plan seed {} (reproduce with --chaos --seed {})",
            args.chaos_seed, args.chaos_seed
        );
    }
    println!();

    let started = Instant::now();
    let reports: Vec<ClientReport> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..args.clients)
            .map(|c| {
                let workload = &workload;
                let seeds = &seeds;
                scope.spawn(move || {
                    run_client(
                        addr,
                        workload,
                        seeds,
                        args.policy,
                        args.chaos,
                        c,
                        args.clients,
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect::<Result<_, _>>()
    })
    .map_err(|e| format!("client failed: {e}"))?;
    let wall = started.elapsed();

    let mut wire_results: Vec<Option<Vec<u8>>> = vec![None; args.jobs];
    let mut latency = LatencyHistogram::new();
    for (results, client_latency) in reports {
        latency.merge(&client_latency);
        for (i, fingerprint) in results {
            wire_results[i] = Some(fingerprint);
        }
    }
    println!(
        "served {} jobs in {:.3}s  ({:.0} jobs/s over the wire)",
        args.jobs,
        wall.as_secs_f64(),
        args.jobs as f64 / wall.as_secs_f64()
    );
    println!("client-side completion latency:");
    for (idx, &count) in latency.counts().iter().enumerate() {
        if count > 0 {
            println!("  {:<8} {count}", LatencyHistogram::bucket_label(idx));
        }
    }

    let fingerprints: Vec<Vec<u8>> = wire_results
        .iter()
        .map(|o| o.clone().expect("every job must report"))
        .collect();
    if args.chaos {
        println!("chaos digest: {:016x}", digest(&fingerprints));
    }

    let mut probe = Client::connect(addr)?;
    let server_stats = probe.stats()?;
    println!("\nserver stats (over the wire):\n{server_stats}");
    drop(probe);
    let _ = server.shutdown();
    if args.chaos {
        assert!(
            server_stats.backend_faults > 0,
            "a chaos run must inject at least one backend fault"
        );
        println!(
            "chaos injected {} backend faults ({} retries, {} reroutes) and every job \
             still resolved to a typed outcome",
            server_stats.backend_faults, server_stats.retries, server_stats.reroutes
        );
    }

    if args.mix == Mix::DuplicateHeavy {
        let served = server_stats.cache_hits + server_stats.cache_misses + server_stats.coalesced;
        #[allow(clippy::cast_precision_loss)]
        let hit_rate = if served == 0 {
            0.0
        } else {
            (server_stats.cache_hits + server_stats.coalesced) as f64 / served as f64
        };
        println!(
            "admission: {} cache hits + {} coalesced over {} keyed submissions \
             (hit rate {:.1}%, {} evictions)",
            server_stats.cache_hits,
            server_stats.coalesced,
            served,
            hit_rate * 100.0,
            server_stats.cache_evictions,
        );
        if args.policy == DispatchPolicy::DeadlineAware {
            println!("deadline-aware jobs bypass admission; skipping the hit-rate check");
        } else if args.chaos {
            // Failed leads are never cached, so chaos runs legitimately
            // recompute some duplicates; only the floor applies.
            assert!(
                hit_rate > 0.0,
                "a duplicate-heavy chaos run must still serve some duplicates from admission"
            );
        } else {
            // The pool size rounds down, so the duplicate share is at
            // least the requested ratio (capped by the single-unique
            // clamp); every duplicate must be a hit or a coalesced
            // waiter.
            #[allow(clippy::cast_precision_loss)]
            let floor = args
                .dup_ratio
                .min((args.jobs - 1) as f64 / args.jobs as f64);
            assert!(
                hit_rate > 0.0 && hit_rate + 1e-9 >= floor,
                "duplicate-heavy hit rate {hit_rate:.3} fell below the duplicate share {floor:.3}"
            );
        }
    }

    println!("replaying on a direct 1-worker runtime to check determinism ...");
    let direct = run_direct(
        &workload,
        &seeds,
        args.policy,
        plan.clone(),
        AdmissionConfig::default(),
    )?;
    let mut agreements = 0usize;
    for (i, fingerprint) in fingerprints.iter().enumerate() {
        assert_eq!(
            fingerprint, &direct[i].0,
            "job {i}: outcomes must match byte for byte across the wire"
        );
        agreements += 1;
    }
    println!(
        "networked ({} clients) and direct (1 worker) runs agree byte-for-byte on all {agreements}/{} outcomes",
        args.clients, args.jobs
    );

    if args.mix == Mix::DuplicateHeavy {
        println!("replaying cold (admission disabled) to check cached results byte-for-byte ...");
        let cold = run_direct(
            &workload,
            &seeds,
            args.policy,
            plan,
            AdmissionConfig::disabled(),
        )?;
        for (i, fingerprint) in fingerprints.iter().enumerate() {
            assert_eq!(
                fingerprint, &cold[i].0,
                "job {i}: cached outcome must match cold recomputation byte for byte"
            );
        }
        println!(
            "cached and cold runs agree byte-for-byte on all {}/{} outcomes \
             (digest {:016x})",
            cold.len(),
            args.jobs,
            digest(&fingerprints)
        );
    }

    if args.policy != DispatchPolicy::PreferSpecialized && !args.chaos {
        let baseline = run_direct(
            &workload,
            &seeds,
            DispatchPolicy::PreferSpecialized,
            None,
            AdmissionConfig::default(),
        )?;
        let rerouted = direct
            .iter()
            .zip(&baseline)
            .filter(|((_, b), (_, base))| b != base)
            .count();
        println!(
            "cost-model planner ({:?}) routed {rerouted}/{} jobs to a different \
             backend than PreferSpecialized",
            args.policy, args.jobs
        );
        if args.policy == DispatchPolicy::MinPredictedLatency && args.jobs >= 2 {
            assert!(
                rerouted >= 1,
                "MinPredictedLatency must reroute at least one job of the mixed workload"
            );
        }
    }
    Ok(())
}

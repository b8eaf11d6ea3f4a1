//! The three serving workloads: servers in-process on loopback, a closed
//! loop of client threads (one connection each) that keep a fixed window of
//! tickets in flight and redeem them oldest-first.

use std::collections::{BTreeMap, VecDeque};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use accel::kernel::Kernel;
use cluster::{Router, RouterConfig};
use runtime::{DispatchPolicy, JobOptions, QuarantinePolicy, RuntimeConfig, RuntimeStats};
use server::{Client, Server, ServerConfig, SubmitOptions};
use wire::WireOutcome;

use crate::gen::{self, Inputs, FAMILIES};
use crate::metrics::{self, Values, BACKENDS};
use crate::oracle;
use crate::{Bounds, Failure};

/// `nproc` is 2: two client threads, two connections.
pub const CLIENTS: usize = 2;

/// The runtime's master seed. Every job carries its own explicit seed, so
/// this only feeds the backend pools' construction.
const RUNTIME_SEED: u64 = 2019;

/// What distinguishes one serving workload from another.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub shards: usize,
    pub workers: usize,
    pub policy: DispatchPolicy,
    /// Tickets each connection keeps in flight.
    pub window: usize,
    /// Whether clients go through a `cluster::Router`.
    pub routed: bool,
    /// Whether slots repeat earlier `(kernel, seed)` pairs. Then which
    /// submissions execute and which are served from the cache depends on
    /// arrival order, and the backends' job and operation counts are not
    /// exact quantities.
    pub repeats: bool,
    /// Untimed jobs run first and charged to `setup_s`.
    pub warmup: usize,
    /// Timed jobs generated per second of `--seconds`; about twice what the
    /// seed commit serves, so the stream outlasts the run.
    pub jobs_per_second: usize,
    /// Timed jobs of a fixed-count run (`run.sh` without `--workload`).
    pub fixed_jobs: usize,
    /// Jobs the layer replay walks through.
    pub replay_jobs: usize,
    generate: fn(usize, u64) -> Inputs,
}

pub const DEVICE_MIX: Spec = Spec {
    name: "device-mix",
    shards: 1,
    workers: 2,
    policy: DispatchPolicy::PreferSpecialized,
    window: 2,
    routed: false,
    repeats: false,
    warmup: 2 * gen::BLOCK,
    jobs_per_second: 192,
    fixed_jobs: 1_792,
    replay_jobs: 64,
    generate: gen::device_mix,
};

pub const STACK_BOUND: Spec = Spec {
    name: "stack-bound",
    shards: 1,
    workers: 1,
    policy: DispatchPolicy::CpuOnly,
    window: 8,
    routed: false,
    repeats: false,
    warmup: gen::STACK_POOL,
    jobs_per_second: 80_000,
    fixed_jobs: 720_000,
    replay_jobs: 256,
    generate: gen::stack_bound,
};

pub const DUP_CLUSTER: Spec = Spec {
    name: "dup-cluster",
    shards: 2,
    workers: 1,
    policy: DispatchPolicy::PreferSpecialized,
    window: 8,
    routed: true,
    repeats: true,
    warmup: gen::WORKING_SET,
    jobs_per_second: 4_000,
    fixed_jobs: 28_000,
    replay_jobs: 64,
    generate: gen::dup_cluster,
};

pub const SERVING: [Spec; 3] = [DEVICE_MIX, STACK_BOUND, DUP_CLUSTER];

impl Spec {
    pub fn named(name: &str) -> Option<&'static Spec> {
        SERVING.iter().find(|spec| spec.name == name)
    }

    pub fn runtime_config(&self) -> RuntimeConfig {
        RuntimeConfig {
            workers: self.workers,
            policy: self.policy,
            seed: RUNTIME_SEED,
            // Quarantine is history-dependent; results must not be.
            quarantine: QuarantinePolicy::disabled(),
            ..RuntimeConfig::default()
        }
    }

    pub fn start_shards(&self) -> Result<Vec<Server>, Failure> {
        (0..self.shards)
            .map(|_| {
                Server::start(ServerConfig {
                    addr: "127.0.0.1:0".into(),
                    max_connections: CLIENTS + 2,
                    runtime: self.runtime_config(),
                })
                .map_err(|e| Failure(format!("server start: {e}")))
            })
            .collect()
    }

    pub fn connect(&self, addrs: &[SocketAddr]) -> Result<Conn, Failure> {
        if self.routed {
            let config = RouterConfig {
                window: self.window,
                seed: RUNTIME_SEED,
                ..RouterConfig::default()
            };
            Router::connect(addrs, config)
                .map(Conn::Routed)
                .map_err(|e| Failure(format!("router connect: {e}")))
        } else {
            Client::connect(addrs[0])
                .map(Conn::Direct)
                .map_err(|e| Failure(format!("client connect: {e}")))
        }
    }

    /// The same workload with clients going through a router, or not.
    pub fn routed(self, routed: bool) -> Spec {
        Spec { routed, ..self }
    }

    pub fn inputs(&self, timed_jobs: usize, seed: u64) -> Inputs {
        (self.generate)(self.warmup + timed_jobs, seed)
    }
}

/// One client connection: straight to the server, or through a router.
pub enum Conn {
    Direct(Client),
    Routed(Router),
}

impl Conn {
    pub fn submit(&mut self, kernel: Kernel, seed: u64) -> Result<u64, Failure> {
        match self {
            Conn::Direct(c) => c
                .submit(kernel, SubmitOptions::with_seed(seed))
                .map_err(|e| Failure(format!("submit: {e}"))),
            Conn::Routed(r) => r
                .submit_blocking(kernel, JobOptions::with_seed(seed))
                .map_err(|e| Failure(format!("router submit: {e}"))),
        }
    }

    pub fn wait(&mut self, ticket: u64) -> Result<WireOutcome, Failure> {
        match self {
            Conn::Direct(c) => c.wait(ticket).map_err(|e| Failure(format!("wait: {e}"))),
            Conn::Routed(r) => r
                .wait(ticket)
                .map_err(|e| Failure(format!("router wait: {e}"))),
        }
    }

    pub fn run(&mut self, kernel: Kernel, seed: u64) -> Result<WireOutcome, Failure> {
        let ticket = self.submit(kernel, seed)?;
        self.wait(ticket)
    }

    fn reroutes(&self) -> u64 {
        match self {
            Conn::Direct(_) => 0,
            Conn::Routed(r) => r.reroutes(),
        }
    }
}

/// What the client keeps per job: two timestamps and the verdict.
#[derive(Debug, Clone, Copy)]
pub struct Record {
    /// Index into `Inputs::slots`.
    pub slot: u32,
    /// From just before `submit` to the return of `wait`.
    pub latency_ns: u64,
    /// Completion time since the phase began.
    pub done_ns: u64,
    /// The server's own `wall_nanos` for the job (0 for a cache hit).
    pub device_ns: u64,
    /// FNV-1a of the outcome fingerprint.
    pub fingerprint: u64,
    pub ok: bool,
}

/// One client thread's closed loop over the shared slot counter.
fn client_loop(
    conn: &mut Conn,
    inputs: &Inputs,
    next: &AtomicUsize,
    end: usize,
    window: usize,
    started: Instant,
    deadline: Option<Instant>,
) -> Result<Vec<Record>, Failure> {
    let mut records = Vec::new();
    let mut in_flight: VecDeque<(usize, u64, Instant)> = VecDeque::with_capacity(window);
    let mut open = true;
    loop {
        while open && in_flight.len() < window {
            if deadline.is_some_and(|d| Instant::now() >= d) {
                open = false;
                break;
            }
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= end {
                open = false;
                break;
            }
            let slot = inputs.slots[i];
            let kernel = inputs.pool[slot.kernel as usize].clone();
            let submitted = Instant::now();
            let ticket = conn.submit(kernel, slot.seed)?;
            in_flight.push_back((i, ticket, submitted));
        }
        let Some((i, ticket, submitted)) = in_flight.pop_front() else {
            return Ok(records);
        };
        let outcome = conn.wait(ticket)?;
        let done = Instant::now();
        let kernel = &inputs.pool[inputs.slots[i].kernel as usize];
        let (verdict, device_ns) = match &outcome {
            WireOutcome::Completed {
                result, wall_nanos, ..
            } => (oracle::verify(kernel, result), *wall_nanos),
            other => (Err(format!("did not complete: {other:?}")), 0),
        };
        if let Err(why) = &verdict {
            eprintln!("job {i} ({}) failed: {why}", kernel.describe());
        }
        let ok = verdict.is_ok();
        records.push(Record {
            slot: i as u32,
            latency_ns: (done - submitted).as_nanos() as u64,
            done_ns: (done - started).as_nanos() as u64,
            device_ns,
            fingerprint: oracle::hash(&oracle::fingerprint(&outcome)),
            ok,
        });
    }
}

/// Runs slots `range` through every connection at once; returns the
/// records in slot order and the phase's wall time.
fn run_phase(
    spec: &Spec,
    conns: &mut [Conn],
    inputs: &Inputs,
    range: std::ops::Range<usize>,
    seconds: Option<f64>,
) -> Result<(Vec<Record>, f64), Failure> {
    let next = AtomicUsize::new(range.start);
    let started = Instant::now();
    let deadline = seconds.map(|s| started + Duration::from_secs_f64(s));
    let per_client: Vec<Result<Vec<Record>, Failure>> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .map(|conn| {
                let next = &next;
                scope.spawn(move || {
                    client_loop(
                        conn,
                        inputs,
                        next,
                        range.end,
                        spec.window,
                        started,
                        deadline,
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err(Failure("client thread panicked".into())))
            })
            .collect()
    });
    let elapsed = started.elapsed().as_secs_f64();
    let mut records = Vec::new();
    for client in per_client {
        records.extend(client?);
    }
    records.sort_by_key(|r| r.slot);
    Ok((records, elapsed))
}

/// A started stack with its warm-up done.
pub struct Stack {
    pub inputs: Inputs,
    pub shards: Vec<Server>,
    pub addrs: Vec<SocketAddr>,
    pub conns: Vec<Conn>,
    pub warmup_failed: u64,
}

/// Input generation + server start + connect + warm-up: what `setup_s`
/// times.
pub fn set_up(spec: &Spec, timed_jobs: usize, seed: u64) -> Result<Stack, Failure> {
    let inputs = spec.inputs(timed_jobs, seed);
    let shards = spec.start_shards()?;
    let addrs: Vec<SocketAddr> = shards.iter().map(Server::local_addr).collect();
    let mut conns = (0..CLIENTS)
        .map(|_| spec.connect(&addrs))
        .collect::<Result<Vec<_>, _>>()?;
    let (warm, _) = run_phase(spec, &mut conns, &inputs, 0..spec.warmup, None)?;
    let warmup_failed = warm.iter().filter(|r| !r.ok).count() as u64;
    Ok(Stack {
        inputs,
        shards,
        addrs,
        conns,
        warmup_failed,
    })
}

impl Stack {
    pub fn shut_down(self) {
        drop(self.conns);
        for shard in self.shards {
            let _ = shard.shutdown();
        }
    }
}

/// One backend's row of `RuntimeStats::per_backend`, as numbers that can
/// be added and subtracted.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BackendRow {
    pub jobs: f64,
    pub modelled_device_s: f64,
    pub operations: f64,
    pub busy_s: f64,
    pub predicted_device_s: f64,
}

impl BackendRow {
    fn add(&mut self, sign: f64, other: &BackendRow) {
        self.jobs += sign * other.jobs;
        self.modelled_device_s += sign * other.modelled_device_s;
        self.operations += sign * other.operations;
        self.busy_s += sign * other.busy_s;
        self.predicted_device_s += sign * other.predicted_device_s;
    }
}

/// The server-side counters the per-layer metrics come from, summed over
/// shards, so two snapshots can be subtracted.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counters {
    pub backends: BTreeMap<String, BackendRow>,
    pub scalars: BTreeMap<&'static str, f64>,
    pub submitted_per_shard: Vec<f64>,
}

impl Counters {
    fn absorb(&mut self, stats: &RuntimeStats) {
        for (name, b) in &stats.per_backend {
            self.backends.entry(name.clone()).or_default().add(
                1.0,
                &BackendRow {
                    jobs: b.jobs as f64,
                    modelled_device_s: b.device_seconds,
                    operations: b.operations as f64,
                    busy_s: b.busy_seconds,
                    predicted_device_s: b.predicted_device_seconds,
                },
            );
        }
        for (name, value) in [
            ("cache_hits", stats.cache_hits),
            ("cache_misses", stats.cache_misses),
            ("coalesced", stats.coalesced),
            ("cache_evictions", stats.cache_evictions),
            ("retries", stats.retries),
            ("reroutes", stats.reroutes),
            ("rejected", stats.rejected),
            ("timed_out", stats.timed_out),
        ] {
            *self.scalars.entry(name).or_default() += value as f64;
        }
        self.submitted_per_shard.push(stats.submitted as f64);
    }

    fn since(&self, earlier: &Counters) -> Counters {
        let mut delta = self.clone();
        for (name, row) in &mut delta.backends {
            if let Some(e) = earlier.backends.get(name) {
                row.add(-1.0, e);
            }
        }
        for (name, value) in &mut delta.scalars {
            *value -= earlier.scalars.get(name).copied().unwrap_or(0.0);
        }
        for (value, e) in delta
            .submitted_per_shard
            .iter_mut()
            .zip(&earlier.submitted_per_shard)
        {
            *value -= e;
        }
        delta
    }
}

/// `GetStats` from every shard.
pub fn read_counters(addrs: &[SocketAddr]) -> Result<Counters, Failure> {
    let mut counters = Counters::default();
    for &addr in addrs {
        let stats = Client::connect(addr)
            .and_then(|mut probe| probe.stats())
            .map_err(|e| Failure(format!("GetStats: {e}")))?;
        counters.absorb(&stats);
    }
    Ok(counters)
}

/// What one timed run yields.
pub struct Timed {
    pub records: Vec<Record>,
    /// The measurement window: `--seconds`, or the whole phase for a
    /// fixed-count run.
    pub window_s: f64,
    /// Start of the phase to the last drained ticket.
    pub elapsed_s: f64,
    pub cpu_s: f64,
    pub counters: Counters,
    pub reroutes: u64,
}

/// The timed phase: slots after the warm-up, until `bounds` says stop.
pub fn run_timed(spec: &Spec, stack: &mut Stack, bounds: Bounds) -> Result<Timed, Failure> {
    let before = read_counters(&stack.addrs)?;
    let end = stack.inputs.slots.len();
    let cpu_before = metrics::cpu_seconds();
    let (records, elapsed_s) = run_phase(
        spec,
        &mut stack.conns,
        &stack.inputs,
        spec.warmup..end,
        bounds.seconds(),
    )?;
    let cpu_s = metrics::cpu_seconds() - cpu_before;
    let counters = read_counters(&stack.addrs)?.since(&before);
    Ok(Timed {
        records,
        window_s: bounds.seconds().unwrap_or(elapsed_s).min(elapsed_s),
        elapsed_s,
        cpu_s,
        counters,
        reroutes: stack.conns.iter().map(Conn::reroutes).sum(),
    })
}

impl Timed {
    /// Records completed inside the measurement window.
    fn in_window(&self) -> impl Iterator<Item = &Record> {
        let limit = (self.window_s * 1e9) as u64;
        self.records.iter().filter(move |r| r.done_ns <= limit)
    }

    pub fn attempted(&self) -> u64 {
        self.records.len() as u64
    }

    pub fn completed_in_window(&self) -> usize {
        self.in_window().count()
    }

    pub fn failed(&self) -> u64 {
        self.records.iter().filter(|r| !r.ok).count() as u64
    }

    /// FNV-1a over the outcome fingerprints in workload order.
    pub fn outcome_digest(&self) -> u64 {
        let mut digest = oracle::Fnv::default();
        for r in &self.records {
            digest.eat_record(&r.fingerprint.to_le_bytes());
        }
        digest.0
    }

    pub fn end_to_end(&self, values: &mut Values) {
        let verified = self.in_window().filter(|r| r.ok).count() as f64;
        values.insert("throughput_jobs_s".into(), verified / self.window_s);
        metrics::latency_summary(
            self.in_window()
                .map(|r| r.latency_ns as f64 / 1e6)
                .collect(),
            values,
        );
        // CPU is read when the last ticket drains, so it is spread over
        // every job of the phase, not only those inside the window.
        values.insert(
            "cpu_ms_per_job".into(),
            self.cpu_s * 1e3 / self.records.len().max(1) as f64,
        );
    }

    /// The `(S)` and `(J)` per-layer metrics.
    pub fn per_layer(&self, spec: &Spec, inputs: &Inputs, values: &mut Values) {
        let c = &self.counters;
        let scalar = |name: &str| c.scalars.get(name).copied().unwrap_or(0.0);
        for counter in ["cache_hits", "cache_misses", "coalesced", "cache_evictions"] {
            values.insert(format!("admission.{counter}"), scalar(counter));
        }
        let keyed = scalar("cache_hits") + scalar("cache_misses") + scalar("coalesced");
        values.insert(
            "admission.hit_ratio".into(),
            (scalar("cache_hits") + scalar("coalesced")) / keyed.max(1.0),
        );
        let capacity_s = self.elapsed_s * (spec.shards * spec.workers) as f64;
        let mut total = BackendRow::default();
        for b in BACKENDS {
            let row = c.backends.get(b).copied().unwrap_or_default();
            values.insert(format!("accel.jobs.{b}"), row.jobs);
            values.insert(format!("accel.busy_share.{b}"), row.busy_s / capacity_s);
            total.add(1.0, &row);
        }
        values.insert("accel.modelled_device_s".into(), total.modelled_device_s);
        values.insert("accel.operations".into(), total.operations);
        values.insert(
            "accel.prediction_error".into(),
            if total.modelled_device_s > 0.0 {
                (total.predicted_device_s - total.modelled_device_s).abs() / total.modelled_device_s
            } else {
                0.0
            },
        );
        values.insert("accel.retries".into(), scalar("retries"));
        values.insert("accel.reroutes".into(), scalar("reroutes"));
        values.insert("runtime.rejected".into(), scalar("rejected"));
        values.insert("runtime.timed_out".into(), scalar("timed_out"));
        values.insert("cluster.computed_jobs".into(), total.jobs);
        values.insert("cluster.reroutes".into(), self.reroutes as f64);
        let most = c.submitted_per_shard.iter().copied().fold(0.0, f64::max);
        let least = c
            .submitted_per_shard
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min);
        values.insert("cluster.shard_balance".into(), most / least.max(1.0));

        let mut by_family: Vec<Vec<f64>> = vec![Vec::new(); FAMILIES.len()];
        let mut device_ms = Vec::new();
        let mut non_device_us = Vec::new();
        for r in self.in_window() {
            let family = inputs.family[inputs.slots[r.slot as usize].kernel as usize];
            by_family[family as usize].push(r.latency_ns as f64 / 1e6);
            device_ms.push(r.device_ns as f64 / 1e6);
            non_device_us.push(r.latency_ns.saturating_sub(r.device_ns) as f64 / 1e3);
        }
        for (f, samples) in FAMILIES.iter().zip(by_family) {
            let samples = metrics::sorted(samples);
            values.insert(
                format!("accel.family.{f}.p50_ms"),
                metrics::percentile(&samples, 50.0),
            );
            values.insert(
                format!("accel.family.{f}.p99_ms"),
                metrics::percentile(&samples, 99.0),
            );
        }
        values.insert(
            "accel.device_host_p50_ms".into(),
            metrics::median(device_ms),
        );
        values.insert(
            "server.non_device_p50_us".into(),
            metrics::median(non_device_us),
        );
    }
}

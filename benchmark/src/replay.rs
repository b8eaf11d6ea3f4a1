//! The layer replay behind `--trace 1`.
//!
//! The first jobs of a serving workload are sent again, one at a time,
//! through each layer's public entry point — `Router`, `Client`, an
//! in-process `Runtime`, then `admit` / `plan` / `dispatch_planned` and the
//! four wire codecs on the job's actual frames — each layer on a fresh
//! stack of its own so no cache leaks from one replay into the next. Every
//! call is a span recorded here, in the benchmark's own code; spans are
//! kept in memory and written out once the replay is over.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use accel::host::{DispatchRequest, HostRuntime};
use runtime::{CorrectionTable, JobOptions, JobOutcome, Runtime};
use wire::{Request, Response, WireOutcome};

use crate::gen::Inputs;
use crate::metrics::{self, Values, BACKENDS};
use crate::oracle;
use crate::serve::Spec;
use crate::Failure;

/// Microsecond-scale calls are made this many times per job; the job's
/// value is the median, which drops the first call's cold caches and any
/// single preemption.
const CHEAP_REPEATS: u8 = 3;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub job: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    pub repeat: u8,
}

/// The span a span's time is part of. The replays run one after another,
/// so the tree is by layer, not by wall-clock nesting.
fn parent(name: &str) -> &'static str {
    match name {
        "cluster.roundtrip" => "",
        "server.roundtrip" | "admission.routing_hash" => "cluster.roundtrip",
        "runtime.roundtrip" => "server.roundtrip",
        n if n.starts_with("wire.") => "server.roundtrip",
        _ => "runtime.roundtrip",
    }
}

pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn span<T>(&mut self, name: &'static str, job: usize, repeat: u8, f: impl FnOnce() -> T) -> T {
        let start = self.epoch.elapsed();
        let out = f();
        let end = self.epoch.elapsed();
        self.spans.push(Span {
            name,
            job: job as u32,
            start_ns: start.as_nanos() as u64,
            end_ns: end.as_nanos() as u64,
            repeat,
        });
        out
    }

    /// A microsecond-scale call, [`CHEAP_REPEATS`] times over.
    fn cheap<T>(&mut self, name: &'static str, job: usize, mut f: impl FnMut() -> T) -> T {
        for repeat in 1..CHEAP_REPEATS {
            std::hint::black_box(self.span(name, job, repeat, &mut f));
        }
        self.span(name, job, 0, &mut f)
    }

    /// Per-job duration of `name` in µs: the median over its repeats.
    fn per_job_us(&self, name: &str, jobs: usize) -> Vec<f64> {
        let mut samples: Vec<Vec<f64>> = vec![Vec::new(); jobs];
        for s in self.spans.iter().filter(|s| s.name == name) {
            samples[s.job as usize].push((s.end_ns - s.start_ns) as f64 / 1e3);
        }
        samples.into_iter().map(metrics::median).collect()
    }

    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"name\": \"{}\", \"job\": {}, \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": \"{}\", \"repeat\": {}}}",
                s.name,
                s.job,
                s.start_ns,
                s.end_ns,
                parent(s.name),
                s.repeat
            )?;
        }
        out.flush()
    }
}

/// One replayed job's outcome at one layer.
struct Seen {
    fingerprint: u64,
    /// The runtime's own wall time for the execution (0 for a cache hit).
    device_us: f64,
    backend: String,
}

fn seen(outcome: &WireOutcome) -> Seen {
    let (device_us, backend) = match outcome {
        WireOutcome::Completed {
            wall_nanos,
            backend,
            ..
        } => (*wall_nanos as f64 / 1e3, backend.clone()),
        _ => (0.0, String::new()),
    };
    Seen {
        fingerprint: oracle::hash(&oracle::fingerprint(outcome)),
        device_us,
        backend,
    }
}

/// Replays the jobs through a served stack (router or client), one span
/// per round trip.
fn replay_served(
    tracer: &mut Tracer,
    name: &'static str,
    spec: &Spec,
    routed: bool,
    inputs: &Inputs,
    jobs: &[usize],
) -> Result<(Vec<Seen>, Vec<WireOutcome>), Failure> {
    let shards = spec.start_shards()?;
    let addrs: Vec<_> = shards.iter().map(server::Server::local_addr).collect();
    let mut conn = spec.routed(routed).connect(&addrs)?;
    let mut outcomes = Vec::with_capacity(jobs.len());
    for (j, &i) in jobs.iter().enumerate() {
        let slot = inputs.slots[i];
        let kernel = inputs.pool[slot.kernel as usize].clone();
        outcomes.push(tracer.span(name, j, 0, || conn.run(kernel, slot.seed))?);
    }
    drop(conn);
    for shard in shards {
        let _ = shard.shutdown();
    }
    Ok((outcomes.iter().map(seen).collect(), outcomes))
}

/// What the replay found besides timings.
pub struct Replay {
    /// Jobs whose outcome differed between layers or from the served run.
    pub mismatches: u64,
    /// Share of replayed jobs whose derived self time is non-negative, for
    /// the runtime, server and cluster layers in that order.
    pub self_time_ok_share: [f64; 3],
}

/// Runs the replay of `jobs` (indices into `inputs.slots`) and fills in the
/// `(T)` metrics. `served` holds the fingerprints the timed run saw for the
/// same jobs, for the cross-check.
pub fn run(
    tracer: &mut Tracer,
    spec: &Spec,
    inputs: &Inputs,
    jobs: &[usize],
    served: &BTreeMap<usize, u64>,
    values: &mut Values,
) -> Result<Replay, Failure> {
    let n = jobs.len();
    let (via_router, _) = replay_served(tracer, "cluster.roundtrip", spec, true, inputs, jobs)?;
    let (via_client, responses) =
        replay_served(tracer, "server.roundtrip", spec, false, inputs, jobs)?;

    // The runtime, in process: one worker, one job at a time.
    let rt = Runtime::start(runtime::RuntimeConfig {
        workers: 1,
        ..spec.runtime_config()
    })
    .map_err(|e| Failure(format!("runtime start: {e}")))?;
    let mut via_runtime = Vec::with_capacity(n);
    for (j, &i) in jobs.iter().enumerate() {
        let slot = inputs.slots[i];
        let kernel = inputs.pool[slot.kernel as usize].clone();
        let outcome: Result<JobOutcome, Failure> = tracer.span("runtime.roundtrip", j, 0, || {
            let handle = rt
                .submit_with(kernel, JobOptions::with_seed(slot.seed))
                .map_err(|e| Failure(format!("runtime submit: {e}")))?;
            Ok(handle.wait())
        });
        via_runtime.push(seen(&WireOutcome::from(&outcome?)));
    }
    let _ = rt.shutdown();

    // Below the runtime: admission's canonical form and key, the planner's
    // ranking, and the dispatch walk on a pool like a worker's.
    let mut host = HostRuntime::with_corrections(spec.policy, CorrectionTable::new());
    for backend in
        accel::backends::standard_pool(0).map_err(|e| Failure(format!("backend pool: {e}")))?
    {
        host.register(backend);
    }
    let mut direct = Vec::with_capacity(n);
    for (j, &i) in jobs.iter().enumerate() {
        let slot = inputs.slots[i];
        let kernel = &inputs.pool[slot.kernel as usize];
        tracer.cheap("admission.routing_hash", j, || {
            admission::routing_hash(kernel)
        });
        let (canonical, _key) = tracer.cheap("admission.admit", j, || admission::admit(kernel));
        tracer
            .cheap("accel.plan", j, || host.plan(&canonical, None, None))
            .map_err(|e| Failure(format!("plan: {e}")))?;
        let request = DispatchRequest {
            reseed: Some(slot.seed),
            ..DispatchRequest::default()
        };
        let report = tracer
            .span("accel.execute", j, 0, || {
                host.dispatch_planned(&canonical, &request)
            })
            .map_err(|e| Failure(format!("dispatch: {e}")))?;
        let as_wire = WireOutcome::Completed {
            backend: report.backend,
            result: report.execution.result,
            cost: report.execution.cost,
            wall_nanos: 0,
        };
        direct.push(seen(&as_wire));
    }

    // The four codecs, on the frames this job actually travels in.
    let mut request_bytes = 0usize;
    let mut response_bytes = 0usize;
    for (j, (&i, outcome)) in jobs.iter().zip(responses).enumerate() {
        let slot = inputs.slots[i];
        let request = Request::Submit {
            request_id: j as u64 + 1,
            timeout_ms: None,
            seed: Some(slot.seed),
            policy: None,
            kernel: inputs.pool[slot.kernel as usize].clone(),
        };
        let response = Response::JobResult {
            request_id: j as u64 + 1,
            outcome,
        };
        let codec = |e: wire::WireError| Failure(format!("wire codec: {e}"));
        let frame = tracer
            .cheap("wire.encode_request", j, || wire::encode_request(&request))
            .map_err(codec)?;
        let decoded = tracer
            .cheap("wire.decode_request", j, || wire::decode_request(&frame))
            .map_err(codec)?;
        request_bytes += frame.len();
        let reply = tracer
            .cheap("wire.encode_response", j, || {
                wire::encode_response(&response)
            })
            .map_err(codec)?;
        let decoded_reply = tracer
            .cheap("wire.decode_response", j, || wire::decode_response(&reply))
            .map_err(codec)?;
        response_bytes += reply.len();
        if decoded != request || decoded_reply != response {
            return Err(Failure(format!("job {i}: a frame did not round-trip")));
        }
    }

    // Every layer must have produced the outcome the timed run was served.
    let mut mismatches = 0;
    for (j, &i) in jobs.iter().enumerate() {
        let expect = via_runtime[j].fingerprint;
        let agree = [&via_router[j], &via_client[j], &direct[j]]
            .iter()
            .all(|s| s.fingerprint == expect)
            && served.get(&i).is_none_or(|&fp| fp == expect);
        if !agree {
            mismatches += 1;
        }
    }

    let us = |name: &str| tracer.per_job_us(name, n);
    let cluster_rt = us("cluster.roundtrip");
    let server_rt = us("server.roundtrip");
    let runtime_rt = us("runtime.roundtrip");
    let admit = us("admission.admit");
    let routing = us("admission.routing_hash");
    let plan = us("accel.plan");
    let execute = us("accel.execute");
    let codecs = [
        "wire.encode_request",
        "wire.decode_request",
        "wire.encode_response",
        "wire.decode_response",
    ];
    let codec_us: Vec<Vec<f64>> = codecs.iter().map(|c| us(c)).collect();

    // A layer's self time is its round trip minus its children's. The
    // device time inside each round trip is the runtime's own `wall_nanos`
    // for that very execution (plan + dispatch, 0 on a cache hit): taking
    // it from the separately replayed `accel.plan` + `accel.execute` spans
    // instead would bury a 20 µs self time under the run-to-run noise of a
    // 40 ms simulation.
    let mut runtime_self = Vec::with_capacity(n);
    let mut server_self = Vec::with_capacity(n);
    let mut cluster_self = Vec::with_capacity(n);
    let mut non_negative = [0usize; 3];
    for j in 0..n {
        let runtime_stack = runtime_rt[j] - via_runtime[j].device_us;
        let server_stack = server_rt[j] - via_client[j].device_us;
        let cluster_stack = cluster_rt[j] - via_router[j].device_us;
        let wire_us: f64 = codec_us.iter().map(|c| c[j]).sum();
        let selfs = [
            runtime_stack - admit[j],
            server_stack - runtime_stack - wire_us,
            cluster_stack - server_stack - routing[j],
        ];
        for (count, &s) in non_negative.iter_mut().zip(&selfs) {
            *count += usize::from(s >= 0.0);
        }
        runtime_self.push(selfs[0]);
        server_self.push(selfs[1]);
        cluster_self.push(selfs[2]);
    }

    for (name, samples) in [
        ("cluster.roundtrip_us", &cluster_rt),
        ("cluster.self_us", &cluster_self),
        ("server.roundtrip_us", &server_rt),
        ("server.self_us", &server_self),
        ("runtime.roundtrip_us", &runtime_rt),
        ("runtime.self_us", &runtime_self),
        ("admission.admit_us", &admit),
        ("admission.routing_hash_us", &routing),
        ("accel.plan_us", &plan),
    ] {
        values.insert(name.into(), metrics::mean(samples));
    }
    for (codec, samples) in codecs.iter().zip(&codec_us) {
        values.insert(format!("{codec}_us"), metrics::mean(samples));
    }
    values.insert("wire.request_bytes".into(), request_bytes as f64 / n as f64);
    values.insert(
        "wire.response_bytes".into(),
        response_bytes as f64 / n as f64,
    );
    for b in BACKENDS {
        let on_b: Vec<f64> = (0..n)
            .filter(|&j| direct[j].backend == b)
            .map(|j| execute[j] / 1e3)
            .collect();
        values.insert(format!("accel.execute_ms.{b}"), metrics::mean(&on_b));
    }

    Ok(Replay {
        mismatches,
        self_time_ok_share: non_negative.map(|count| count as f64 / n.max(1) as f64),
    })
}

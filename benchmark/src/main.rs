//! The repo benchmark. See `benchmark/README.md`.
//!
//! `repo-benchmark --workload W --seed N --seconds S --trace 0|1` is one
//! run of one workload (what the driver calls); without `--workload` it
//! runs the whole suite, one child process per run (see `suite.rs`).

mod direct;
mod gen;
mod metrics;
mod oracle;
mod replay;
mod serve;
mod suite;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use metrics::Values;

pub const WORKLOADS: [&str; 4] = [
    "device-mix",
    "stack-bound",
    "dup-cluster",
    "substrate-direct",
];

/// `setup_s` is the median of this many set-ups per run.
const SETUP_REPEATS: usize = 3;

/// Why a run could not be measured at all (as opposed to a job failing,
/// which is counted and reported).
#[derive(Debug)]
pub struct Failure(pub String);

/// When the timed phase ends.
#[derive(Debug, Clone, Copy)]
pub enum Bounds {
    /// After this many seconds (the driver's mode): no new job is started
    /// past the deadline, jobs in flight are drained and checked.
    Seconds(f64),
    /// After exactly this many jobs (the suite's mode), so that exact
    /// counters and digests repeat.
    Jobs(usize),
}

impl Bounds {
    pub fn seconds(self) -> Option<f64> {
        match self {
            Bounds::Seconds(s) => Some(s),
            Bounds::Jobs(_) => None,
        }
    }

    /// How many timed jobs to generate, given the stream's rate.
    fn jobs(self, per_second: usize) -> usize {
        match self {
            Bounds::Seconds(s) => (per_second as f64 * s).ceil() as usize,
            Bounds::Jobs(n) => n,
        }
    }
}

pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub bounds: Bounds,
    pub trace: bool,
    pub results_dir: PathBuf,
}

/// What one run reports.
struct Report {
    attempted: u64,
    failed: u64,
    values: Values,
    /// Quantities that must repeat exactly between two fixed-count runs.
    exact: BTreeMap<&'static str, String>,
    notes: Vec<String>,
}

/// Runs `set_up` the number of times `setup_s` needs, tearing down all but
/// the last; returns the last and the median time.
fn timed_setups<T>(
    repeats: usize,
    mut set_up: impl FnMut() -> Result<T, Failure>,
    mut tear_down: impl FnMut(T),
) -> Result<(T, f64), Failure> {
    let mut times = Vec::with_capacity(repeats);
    let mut last = None;
    for _ in 0..repeats {
        if let Some(previous) = last.take() {
            tear_down(previous);
        }
        let started = Instant::now();
        last = Some(set_up()?);
        times.push(started.elapsed().as_secs_f64());
    }
    let last = last.ok_or_else(|| Failure("no set-up ran".into()))?;
    Ok((last, metrics::median(times)))
}

fn run_serving(spec: &serve::Spec, args: &RunArgs) -> Result<Report, Failure> {
    let timed_jobs = args.bounds.jobs(spec.jobs_per_second);
    // The traced run reports no `setup_s`, so it sets up once.
    let repeats = if args.trace { 1 } else { SETUP_REPEATS };
    let (mut stack, setup_s) = timed_setups(
        repeats,
        || serve::set_up(spec, timed_jobs, args.seed),
        serve::Stack::shut_down,
    )?;
    let timed = serve::run_timed(spec, &mut stack, args.bounds)?;
    let mut values = Values::new();
    values.insert("setup_s".into(), setup_s);
    timed.end_to_end(&mut values);
    // Read before the replay starts stacks of its own.
    values.insert("peak_rss_mb".into(), metrics::peak_rss_mb());
    let mut failed = timed.failed() + stack.warmup_failed;
    let mut notes = vec![format!(
        "{} jobs timed ({} in the {:.2} s window), {} warm-up jobs, {} clients x window {}",
        timed.attempted(),
        timed.completed_in_window(),
        timed.window_s,
        spec.warmup,
        serve::CLIENTS,
        spec.window
    )];
    if timed.attempted() as usize == timed_jobs && args.bounds.seconds().is_some() {
        notes.push(format!(
            "the job stream ran out before the deadline: raise jobs_per_second for {}",
            spec.name
        ));
    }
    let mut exact = BTreeMap::new();
    exact.insert("outcome_digest", format!("{:016x}", timed.outcome_digest()));
    if args.trace {
        timed.per_layer(spec, &stack.inputs, &mut values);
        let keyed: f64 = ["cache_hits", "cache_misses", "coalesced"]
            .iter()
            .map(|c| values[&format!("admission.{c}")])
            .sum();
        exact.insert("admission.keyed", format!("{keyed}"));
        let first = spec.warmup;
        let jobs: Vec<usize> =
            (first..(first + spec.replay_jobs).min(stack.inputs.slots.len())).collect();
        let served: BTreeMap<usize, u64> = timed
            .records
            .iter()
            .filter(|r| (r.slot as usize) < first + spec.replay_jobs)
            .map(|r| (r.slot as usize, r.fingerprint))
            .collect();
        let mut tracer = replay::Tracer::new();
        let replay = replay::run(
            &mut tracer,
            spec,
            &stack.inputs,
            &jobs,
            &served,
            &mut values,
        )?;
        let path = args.results_dir.join(format!("trace-{}.jsonl", spec.name));
        tracer
            .write(&path)
            .map_err(|e| Failure(format!("writing {}: {e}", path.display())))?;
        failed += replay.mismatches;
        notes.push(format!(
            "layer replay: {} jobs, {} spans in {}, {} outcome mismatches; self time \
             non-negative on {:.0} % (runtime) {:.0} % (server) {:.0} % (cluster) of jobs",
            jobs.len(),
            tracer.spans.len(),
            path.display(),
            replay.mismatches,
            replay.self_time_ok_share[0] * 100.0,
            replay.self_time_ok_share[1] * 100.0,
            replay.self_time_ok_share[2] * 100.0
        ));
        for name in ["wire.request_bytes", "wire.response_bytes"] {
            exact.insert(name, format!("{:?}", values[name]));
        }
        if !spec.repeats {
            exact.insert(
                "accel.operations",
                format!("{}", values["accel.operations"]),
            );
            // The server adds device seconds up in completion order, so the
            // last bits of the sum depend on scheduling; 12 digits do not.
            exact.insert(
                "accel.modelled_device_s",
                format!("{:.11e}", values["accel.modelled_device_s"]),
            );
            exact.insert(
                "accel.jobs",
                metrics::BACKENDS
                    .iter()
                    .map(|b| format!("{}", values[&format!("accel.jobs.{b}")]))
                    .collect::<Vec<_>>()
                    .join("/"),
            );
        }
    }
    let attempted = timed.attempted() + spec.warmup as u64;
    stack.shut_down();
    Ok(Report {
        attempted,
        failed,
        values,
        exact,
        notes,
    })
}

fn run_direct(args: &RunArgs) -> Result<Report, Failure> {
    let timed_calls = args.bounds.jobs(direct::CALLS_PER_SECOND);
    let repeats = if args.trace { 1 } else { SETUP_REPEATS };
    let (setup, setup_s) = timed_setups(repeats, || direct::set_up(timed_calls, args.seed), drop)?;
    let timed = direct::run_timed(&setup, args.bounds)?;
    let mut values = Values::new();
    values.insert("setup_s".into(), setup_s);
    timed.end_to_end(&mut values);
    values.insert("peak_rss_mb".into(), metrics::peak_rss_mb());
    let mut exact = BTreeMap::new();
    if args.trace {
        timed.per_layer(&mut values);
        direct::inner_loop_rates(&mut values)?;
        exact.insert("mem.dmm_steps", format!("{:?}", values["mem.dmm_steps"]));
    }
    Ok(Report {
        attempted: timed.attempted() + direct::WARMUP_CALLS as u64,
        failed: timed.failed() + setup.warmup_failed,
        values,
        exact,
        notes: vec![format!(
            "{} calls timed in {:.2} s on one thread, {} warm-up calls",
            timed.attempted(),
            timed.window_s,
            direct::WARMUP_CALLS
        )],
    })
}

/// One run of one workload: prints every metric by name with its unit,
/// then the result line.
fn run_one(args: &RunArgs) -> Result<(), Failure> {
    let report = match serve::Spec::named(&args.workload) {
        Some(spec) => run_serving(spec, args)?,
        None if args.workload == "substrate-direct" => run_direct(args)?,
        None => return Err(Failure(format!("unknown workload {}", args.workload))),
    };
    let names: Vec<(String, &'static str)> = if args.trace {
        metrics::per_layer()
    } else {
        metrics::END_TO_END
            .iter()
            .map(|&(n, u, _)| (n.to_string(), u))
            .collect()
    };
    println!(
        "workload {} seed {} trace {}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    for note in &report.notes {
        println!("  {note}");
    }
    println!(
        "  latency percentiles are over {} samples (p95 = {:.3} ms, p99 = {:.3} ms)",
        report.values["latency_samples"],
        report.values["latency_p95_ms"],
        report.values["latency_p99_ms"]
    );
    for (name, unit) in &names {
        let value = report.values.get(name).copied().unwrap_or(0.0);
        println!("  {name:<36} {value:>18.6} {unit}");
    }
    println!(
        "  failed_share                         {:>18.6} ratio ({} of {} attempted)",
        report.failed as f64 / report.attempted.max(1) as f64,
        report.failed,
        report.attempted
    );
    for (name, value) in &report.exact {
        println!("exact {name} {value}");
    }
    println!(
        "{}",
        metrics::result_line(report.attempted, report.failed, &names, &report.values)
    );
    Ok(())
}

fn usage() -> Failure {
    Failure(
        "usage: run.sh --workload <name> --seed <n> (--seconds <s> | --jobs <n>) --trace <0|1>\n\
         \x20      run.sh [--seed <n>] [--smoke] [--check]        (the whole suite)\n\
         workloads: device-mix, stack-bound, dup-cluster, substrate-direct"
            .into(),
    )
}

/// Returns the exit code. A single run exits 0 even when jobs failed: its
/// result line says so.
fn main_inner() -> Result<i32, Failure> {
    let mut workload = None;
    let mut seed = 2019u64;
    let mut bounds = None;
    let mut trace = false;
    let mut results_dir = PathBuf::from("benchmark/results");
    let mut check = false;
    let mut smoke = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--check" => check = true,
            "--smoke" => smoke = true,
            "--workload" | "--seed" | "--seconds" | "--jobs" | "--trace" | "--results-dir" => {
                let raw = it.next().ok_or_else(usage)?;
                let bad = |e: &dyn std::fmt::Display| Failure(format!("{flag} {raw}: {e}"));
                match flag.as_str() {
                    "--workload" => workload = Some(raw),
                    "--seed" => seed = raw.parse().map_err(|e| bad(&e))?,
                    "--seconds" => {
                        let s: f64 = raw.parse().map_err(|e| bad(&e))?;
                        if !(s > 0.0 && s.is_finite()) {
                            return Err(bad(&"must be positive"));
                        }
                        bounds = Some(Bounds::Seconds(s));
                    }
                    "--jobs" => {
                        let n: usize = raw.parse().map_err(|e| bad(&e))?;
                        if n == 0 {
                            return Err(bad(&"must be at least 1"));
                        }
                        bounds = Some(Bounds::Jobs(n));
                    }
                    "--trace" => {
                        trace = match raw.as_str() {
                            "0" => false,
                            "1" => true,
                            _ => return Err(bad(&"must be 0 or 1")),
                        }
                    }
                    _ => results_dir = PathBuf::from(raw),
                }
            }
            _ => return Err(usage()),
        }
    }
    match workload {
        Some(workload) => run_one(&RunArgs {
            workload,
            seed,
            bounds: bounds.ok_or_else(usage)?,
            trace,
            results_dir,
        })
        .map(|()| 0),
        None => suite::run(seed, smoke, check, &results_dir),
    }
}

fn main() {
    match main_inner() {
        Ok(code) => std::process::exit(code),
        Err(Failure(why)) => {
            eprintln!("benchmark: {why}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(workload: &str, jobs: usize, trace: bool) -> RunArgs {
        RunArgs {
            workload: workload.into(),
            seed: 7,
            bounds: Bounds::Jobs(jobs),
            trace,
            results_dir: PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/results/test")),
        }
    }

    /// A non-default seed, end to end, oracles on: a served workload with
    /// its layer replay, and the direct workload. Run with `--release`; the
    /// simulators are slow without optimisation.
    #[test]
    fn a_non_default_seed_runs_end_to_end() {
        let spec = &serve::STACK_BOUND;
        let report = run_serving(spec, &args(spec.name, 3_000, true)).unwrap();
        assert_eq!(report.failed, 0);
        assert_eq!(report.attempted, 3_000 + spec.warmup as u64);
        assert_eq!(report.values["admission.cache_misses"], 3_000.0);
        assert_eq!(report.values["accel.jobs.cpu"], 3_000.0);
        assert!(report.values["server.roundtrip_us"] > report.values["runtime.roundtrip_us"]);
        let trace = args(spec.name, 0, true)
            .results_dir
            .join("trace-stack-bound.jsonl");
        let spans = std::fs::read_to_string(trace).unwrap();
        assert!(spans.lines().count() >= spec.replay_jobs * 11);

        let report = run_direct(&args("substrate-direct", gen::DIRECT_ROUND, true)).unwrap();
        assert_eq!(report.failed, 0);
        assert!(report.values["mem.dmm_steps"] > 0.0);
        assert!(report.values["quantum.amp_updates_per_s"] > 0.0);
    }

    #[test]
    fn same_seed_same_digest() {
        let spec = &serve::STACK_BOUND;
        let a = run_serving(spec, &args(spec.name, 500, false)).unwrap();
        let b = run_serving(spec, &args(spec.name, 500, false)).unwrap();
        assert_eq!(a.exact["outcome_digest"], b.exact["outcome_digest"]);
    }
}

//! E16 — cost-model-driven dispatch: the mixed serving workload under every
//! routing policy, with the calibration loop closed between rounds.
//!
//! Each policy runs the same `src/workload.rs` mix for several rounds; the
//! correction table harvested from one round's [`RuntimeStats`] seeds the
//! next round's planner, so the predicted-vs-actual device-time ledger
//! should converge. Two registry-family mixes (coloring-heavy, qubo-heavy)
//! then run under `PreferSpecialized` to show the family registry's cost
//! models steering the new kernels onto their specialized substrates.
//! Results land in `BENCH_dispatch.json` at the repo root (throughput,
//! p50/p99 latency, predicted vs actual device seconds, per-round
//! calibration error, and per-backend routing for the family mixes).

use accel::kernel::Kernel;
use bench::{banner, eng};
use criterion::{criterion_group, criterion_main, Criterion};
use rebooting_models::workload::{
    coloring_heavy_workload, duplicate_heavy_workload, job_seeds, mixed_workload,
    qubo_heavy_workload,
};
use runtime::{
    AdmissionConfig, CorrectionTable, DispatchPolicy, JobOptions, JobOutcome, Runtime,
    RuntimeConfig, RuntimeStats,
};
use std::time::Instant;

/// Jobs per calibration round.
const JOBS: usize = 32;
/// Calibration rounds per policy (round 0 plans uncorrected).
const ROUNDS: usize = 4;
/// Master seed for the workload mix and the per-job execution seeds.
const SEED: u64 = 2019;
/// Jobs in the duplicate-heavy admission experiment.
const DUP_JOBS: usize = 64;
/// Duplicate fraction of the duplicate-heavy workload.
const DUP_RATIO: f64 = 0.9;
/// Jobs in each registry-family mix experiment.
const FAMILY_JOBS: usize = 32;

const POLICIES: [DispatchPolicy; 5] = [
    DispatchPolicy::PreferSpecialized,
    DispatchPolicy::CpuOnly,
    DispatchPolicy::MinPredictedLatency,
    DispatchPolicy::MinPredictedEnergy,
    DispatchPolicy::DeadlineAware,
];

fn policy_name(policy: DispatchPolicy) -> &'static str {
    match policy {
        DispatchPolicy::PreferSpecialized => "prefer-specialized",
        DispatchPolicy::CpuOnly => "cpu-only",
        DispatchPolicy::MinPredictedLatency => "min-latency",
        DispatchPolicy::MinPredictedEnergy => "min-energy",
        DispatchPolicy::DeadlineAware => "deadline-aware",
    }
}

struct RoundReport {
    stats: RuntimeStats,
    /// Per-job submit-to-completion wall latencies, seconds, sorted.
    latencies: Vec<f64>,
    /// Wall-clock seconds for the whole round.
    elapsed: f64,
}

/// Runs the workload once through a serving runtime planning with the
/// given frozen corrections. Jobs are submitted closed-loop (one in
/// flight) so per-job latency is clean and the stats EWMAs accumulate in
/// a deterministic order.
fn run_round(policy: DispatchPolicy, corrections: &CorrectionTable, jobs: usize) -> RoundReport {
    let kernels = mixed_workload(jobs, SEED).expect("workload generates");
    let seeds = job_seeds(jobs, SEED);
    let rt = Runtime::start(RuntimeConfig {
        workers: 2,
        policy,
        corrections: corrections.clone(),
        ..RuntimeConfig::default()
    })
    .expect("runtime starts");
    let started = Instant::now();
    let mut latencies = Vec::with_capacity(jobs);
    for (kernel, &seed) in kernels.iter().zip(&seeds) {
        let t0 = Instant::now();
        let handle = rt
            .submit_with(kernel.clone(), JobOptions::with_seed(seed))
            .expect("submit accepted");
        match handle.wait() {
            JobOutcome::Completed { .. } => latencies.push(t0.elapsed().as_secs_f64()),
            other => panic!("job did not complete: {other:?}"),
        }
    }
    let elapsed = started.elapsed().as_secs_f64();
    latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    RoundReport {
        stats: rt.shutdown(),
        latencies,
        elapsed,
    }
}

/// Runs `ROUNDS` calibration rounds, harvesting each round's corrections
/// for the next.
fn run_policy(policy: DispatchPolicy) -> Vec<RoundReport> {
    let mut corrections = CorrectionTable::new();
    let mut rounds = Vec::with_capacity(ROUNDS);
    for _ in 0..ROUNDS {
        let report = run_round(policy, &corrections, JOBS);
        corrections = report.stats.calibrated(&corrections);
        rounds.push(report);
    }
    rounds
}

struct DupReport {
    /// Wall-clock seconds for the whole run.
    elapsed: f64,
    stats: RuntimeStats,
    /// `backend:result` per job, for the byte-equality check between the
    /// cached and cold runs.
    outcomes: Vec<String>,
}

/// Runs the duplicate-heavy workload closed-loop under
/// `PreferSpecialized` (so cache hits skip genuinely expensive
/// specialized-device executions) with the given admission tier.
fn run_duplicate_heavy(admission: AdmissionConfig) -> DupReport {
    let (kernels, seeds) =
        duplicate_heavy_workload(DUP_JOBS, SEED, DUP_RATIO).expect("workload generates");
    let rt = Runtime::start(RuntimeConfig {
        workers: 2,
        policy: DispatchPolicy::PreferSpecialized,
        admission,
        ..RuntimeConfig::default()
    })
    .expect("runtime starts");
    let started = Instant::now();
    let mut outcomes = Vec::with_capacity(DUP_JOBS);
    for (kernel, &seed) in kernels.iter().zip(&seeds) {
        let handle = rt
            .submit_with(kernel.clone(), JobOptions::with_seed(seed))
            .expect("submit accepted");
        match handle.wait() {
            JobOutcome::Completed {
                backend, execution, ..
            } => outcomes.push(format!("{backend}:{:?}", execution.result)),
            other => panic!("job did not complete: {other:?}"),
        }
    }
    let elapsed = started.elapsed().as_secs_f64();
    DupReport {
        elapsed,
        stats: rt.shutdown(),
        outcomes,
    }
}

struct FamilyReport {
    mix: &'static str,
    /// Wall-clock seconds for the whole run.
    elapsed: f64,
    stats: RuntimeStats,
    /// Jobs that rode the generic family frame.
    family_jobs: usize,
}

/// Runs a registry-family mix closed-loop under `PreferSpecialized`, so
/// the planner routes each family to its specialized substrate purely
/// through its registry entry (no `Kernel` match arms on this path).
fn run_family_mix(mix: &'static str, kernels: &[Kernel]) -> FamilyReport {
    let seeds = job_seeds(kernels.len(), SEED);
    let rt = Runtime::start(RuntimeConfig {
        workers: 2,
        policy: DispatchPolicy::PreferSpecialized,
        ..RuntimeConfig::default()
    })
    .expect("runtime starts");
    let started = Instant::now();
    for (kernel, &seed) in kernels.iter().zip(&seeds) {
        let handle = rt
            .submit_with(kernel.clone(), JobOptions::with_seed(seed))
            .expect("submit accepted");
        match handle.wait() {
            JobOutcome::Completed { .. } => {}
            other => panic!("job did not complete: {other:?}"),
        }
    }
    let elapsed = started.elapsed().as_secs_f64();
    FamilyReport {
        mix,
        elapsed,
        stats: rt.shutdown(),
        family_jobs: kernels
            .iter()
            .filter(|k| matches!(k, Kernel::Family(_)))
            .count(),
    }
}

/// Nearest-rank percentile of an ascending-sorted sample.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty());
    let idx = ((sorted.len() - 1) as f64 * p / 100.0).round() as usize;
    sorted[idx]
}

/// Aggregate relative prediction error of a snapshot:
/// `|predicted − actual| / actual` over total device seconds.
fn abs_rel_error(stats: &RuntimeStats) -> f64 {
    let actual = stats.total_device_seconds();
    if actual > 0.0 {
        (stats.total_predicted_device_seconds() - actual).abs() / actual
    } else {
        0.0
    }
}

/// Job-weighted mean of the per-backend EWMA prediction error.
fn mean_ewma_error(stats: &RuntimeStats) -> f64 {
    let (mut num, mut den) = (0.0, 0.0);
    for t in stats.per_backend.values() {
        num += t.ewma_error * t.jobs as f64;
        den += t.jobs as f64;
    }
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.6e}")
    } else {
        "null".into()
    }
}

/// Renders the whole experiment as the `BENCH_dispatch.json` document.
fn render_json(
    results: &[(DispatchPolicy, Vec<RoundReport>)],
    cached: &DupReport,
    cold: &DupReport,
    families: &[FamilyReport],
) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"experiment\": \"dispatch_policies\",\n");
    out.push_str(&format!("  \"jobs_per_round\": {JOBS},\n"));
    out.push_str(&format!("  \"rounds\": {ROUNDS},\n"));
    out.push_str(&format!("  \"seed\": {SEED},\n"));
    let keyed = cached.stats.cache_hits + cached.stats.cache_misses + cached.stats.coalesced;
    #[allow(clippy::cast_precision_loss)]
    let hit_rate = if keyed == 0 {
        0.0
    } else {
        (cached.stats.cache_hits + cached.stats.coalesced) as f64 / keyed as f64
    };
    out.push_str("  \"duplicate_heavy\": {\n");
    out.push_str(&format!("    \"jobs\": {DUP_JOBS},\n"));
    out.push_str(&format!("    \"dup_ratio\": {DUP_RATIO},\n"));
    out.push_str("    \"policy\": \"prefer-specialized\",\n");
    #[allow(clippy::cast_precision_loss)]
    {
        out.push_str(&format!(
            "    \"throughput_cached_jobs_per_sec\": {},\n",
            json_num(DUP_JOBS as f64 / cached.elapsed)
        ));
        out.push_str(&format!(
            "    \"throughput_cold_jobs_per_sec\": {},\n",
            json_num(DUP_JOBS as f64 / cold.elapsed)
        ));
    }
    out.push_str(&format!(
        "    \"speedup\": {},\n",
        json_num(cold.elapsed / cached.elapsed)
    ));
    out.push_str(&format!(
        "    \"cache_hits\": {},\n",
        cached.stats.cache_hits
    ));
    out.push_str(&format!("    \"coalesced\": {},\n", cached.stats.coalesced));
    out.push_str(&format!("    \"hit_rate\": {}\n", json_num(hit_rate)));
    out.push_str("  },\n");
    out.push_str("  \"family_mixes\": [\n");
    for (fi, report) in families.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!("      \"mix\": \"{}\",\n", report.mix));
        out.push_str(&format!("      \"jobs\": {FAMILY_JOBS},\n"));
        out.push_str(&format!(
            "      \"family_frame_jobs\": {},\n",
            report.family_jobs
        ));
        out.push_str("      \"policy\": \"prefer-specialized\",\n");
        #[allow(clippy::cast_precision_loss)]
        out.push_str(&format!(
            "      \"throughput_jobs_per_sec\": {},\n",
            json_num(FAMILY_JOBS as f64 / report.elapsed)
        ));
        out.push_str(&format!(
            "      \"predicted_device_seconds\": {},\n",
            json_num(report.stats.total_predicted_device_seconds())
        ));
        out.push_str(&format!(
            "      \"actual_device_seconds\": {},\n",
            json_num(report.stats.total_device_seconds())
        ));
        out.push_str("      \"jobs_per_backend\": {");
        let mut first = true;
        for (name, t) in &report.stats.per_backend {
            if !first {
                out.push_str(", ");
            }
            first = false;
            out.push_str(&format!("\"{name}\": {}", t.jobs));
        }
        out.push_str("}\n");
        out.push_str(&format!(
            "    }}{}\n",
            if fi + 1 < families.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"policies\": [\n");
    for (pi, (policy, rounds)) in results.iter().enumerate() {
        let last = rounds.last().expect("at least one round");
        out.push_str("    {\n");
        out.push_str(&format!(
            "      \"policy\": \"{}\",\n",
            policy_name(*policy)
        ));
        out.push_str(&format!(
            "      \"throughput_jobs_per_sec\": {},\n",
            json_num(JOBS as f64 / last.elapsed)
        ));
        out.push_str(&format!(
            "      \"p50_latency_us\": {},\n",
            json_num(percentile(&last.latencies, 50.0) * 1e6)
        ));
        out.push_str(&format!(
            "      \"p99_latency_us\": {},\n",
            json_num(percentile(&last.latencies, 99.0) * 1e6)
        ));
        out.push_str(&format!(
            "      \"predicted_device_seconds\": {},\n",
            json_num(last.stats.total_predicted_device_seconds())
        ));
        out.push_str(&format!(
            "      \"actual_device_seconds\": {},\n",
            json_num(last.stats.total_device_seconds())
        ));
        out.push_str(&format!(
            "      \"prediction_error\": {},\n",
            json_num(abs_rel_error(&last.stats))
        ));
        out.push_str("      \"jobs_per_backend\": {");
        let mut first = true;
        for (name, t) in &last.stats.per_backend {
            if !first {
                out.push_str(", ");
            }
            first = false;
            out.push_str(&format!("\"{name}\": {}", t.jobs));
        }
        out.push_str("},\n");
        out.push_str("      \"calibration\": [\n");
        for (ri, round) in rounds.iter().enumerate() {
            out.push_str(&format!(
                "        {{\"round\": {ri}, \"predicted_device_seconds\": {}, \
                 \"actual_device_seconds\": {}, \"abs_rel_error\": {}, \
                 \"mean_ewma_error\": {}}}{}\n",
                json_num(round.stats.total_predicted_device_seconds()),
                json_num(round.stats.total_device_seconds()),
                json_num(abs_rel_error(&round.stats)),
                json_num(mean_ewma_error(&round.stats)),
                if ri + 1 < rounds.len() { "," } else { "" }
            ));
        }
        out.push_str("      ]\n");
        out.push_str(&format!(
            "    }}{}\n",
            if pi + 1 < results.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n");
    out.push_str("}\n");
    out
}

fn print_experiment() {
    banner(
        "E16 dispatch_policies",
        "cost-model routing + calibration loop (Fig. 1 serving view)",
    );
    println!("workload: {JOBS} mixed kernels x {ROUNDS} calibration rounds per policy\n");
    let mut results = Vec::new();
    for policy in POLICIES {
        let rounds = run_policy(policy);
        let last = rounds.last().expect("rounds ran");
        println!("policy {:<19}", policy_name(policy));
        println!(
            "  throughput {:>10} jobs/s   p50 {:>10} us   p99 {:>10} us",
            eng(JOBS as f64 / last.elapsed),
            eng(percentile(&last.latencies, 50.0) * 1e6),
            eng(percentile(&last.latencies, 99.0) * 1e6),
        );
        println!(
            "  device-s predicted {:>10}  actual {:>10}",
            eng(last.stats.total_predicted_device_seconds()),
            eng(last.stats.total_device_seconds()),
        );
        let errors: Vec<f64> = rounds.iter().map(|r| abs_rel_error(&r.stats)).collect();
        println!(
            "  prediction error by round: {}",
            errors
                .iter()
                .map(|&e| eng(e))
                .collect::<Vec<_>>()
                .join(" -> ")
        );
        // The calibration loop is deterministic (routing and device costs
        // are pure functions of the submission), so convergence is a hard
        // property, not a tendency.
        assert!(
            errors.last().expect("rounds ran") <= &(errors[0] + 1e-12),
            "calibration failed to shrink the prediction error: {errors:?}"
        );
        results.push((policy, rounds));
    }

    println!("\nduplicate-heavy admission experiment: {DUP_JOBS} jobs, dup ratio {DUP_RATIO}");
    let cached = run_duplicate_heavy(AdmissionConfig::default());
    let cold = run_duplicate_heavy(AdmissionConfig::disabled());
    assert_eq!(
        cached.outcomes, cold.outcomes,
        "cached results must match cold recomputation byte for byte"
    );
    let keyed = cached.stats.cache_hits + cached.stats.cache_misses + cached.stats.coalesced;
    #[allow(clippy::cast_precision_loss)]
    let hit_rate = (cached.stats.cache_hits + cached.stats.coalesced) as f64 / keyed.max(1) as f64;
    #[allow(clippy::cast_precision_loss)]
    {
        println!(
            "  cached {:>10} jobs/s   cold {:>10} jobs/s   speedup {:.1}x",
            eng(DUP_JOBS as f64 / cached.elapsed),
            eng(DUP_JOBS as f64 / cold.elapsed),
            cold.elapsed / cached.elapsed,
        );
        println!(
            "  {} cache hits + {} coalesced over {keyed} keyed submissions (hit rate {:.1}%)",
            cached.stats.cache_hits,
            cached.stats.coalesced,
            hit_rate * 100.0
        );
        assert!(
            hit_rate >= DUP_RATIO,
            "duplicate-heavy hit rate {hit_rate:.3} fell below the duplicate ratio {DUP_RATIO}"
        );
    }
    // Cache hits skip millisecond-scale specialized-device executions, so
    // the admission tier must beat cold recomputation outright.
    assert!(
        cold.elapsed > cached.elapsed,
        "admission caching failed to improve duplicate-heavy throughput \
         (cached {:.4}s vs cold {:.4}s)",
        cached.elapsed,
        cold.elapsed
    );

    println!("\nregistry-family mix experiment: {FAMILY_JOBS} jobs each, prefer-specialized");
    let coloring = run_family_mix(
        "coloring-heavy",
        &coloring_heavy_workload(FAMILY_JOBS, SEED).expect("coloring workload"),
    );
    let qubo = run_family_mix(
        "qubo-heavy",
        &qubo_heavy_workload(FAMILY_JOBS, SEED).expect("qubo workload"),
    );
    for report in [&coloring, &qubo] {
        let routed: Vec<String> = report
            .stats
            .per_backend
            .iter()
            .map(|(name, t)| format!("{name}={}", t.jobs))
            .collect();
        #[allow(clippy::cast_precision_loss)]
        {
            println!(
                "  {:<15} {:>10} jobs/s   {}/{} family frames   [{}]",
                report.mix,
                eng(FAMILY_JOBS as f64 / report.elapsed),
                report.family_jobs,
                FAMILY_JOBS,
                routed.join(", ")
            );
        }
        assert!(
            report.family_jobs > 0 && report.family_jobs < FAMILY_JOBS,
            "a family-heavy mix must interleave family and legacy kernels"
        );
    }
    // The registry cost models — not any `Kernel` match arm — are what
    // steer each family onto its specialized substrate, so routing there
    // is a hard property of the refactor.
    let oscillator_jobs = coloring
        .stats
        .per_backend
        .get("oscillator")
        .map_or(0, |t| t.jobs);
    assert!(
        oscillator_jobs > 0,
        "coloring-heavy mix never reached the oscillator backend"
    );
    let dmm_jobs = qubo
        .stats
        .per_backend
        .get("memcomputing")
        .map_or(0, |t| t.jobs);
    assert!(
        dmm_jobs > 0,
        "qubo-heavy mix never reached the memcomputing backend"
    );

    let json = render_json(&results, &cached, &cold, &[coloring, qubo]);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_dispatch.json");
    std::fs::write(path, &json).expect("write BENCH_dispatch.json");
    println!("\nwrote {path}");
    println!("expected shape: min-latency pulls Compare kernels onto the CPU (ns-scale");
    println!("estimate) while prefer-specialized keeps them on the oscillator; the");
    println!("per-round error column shrinks as harvested corrections feed the planner");
}

fn bench(c: &mut Criterion) {
    print_experiment();
    c.bench_function("dispatch/duplicate_heavy_cached", |b| {
        b.iter(|| {
            let report = run_duplicate_heavy(AdmissionConfig::default());
            criterion::black_box(report.stats.cache_hits)
        });
    });
    c.bench_function("dispatch/calibrated_round", |b| {
        b.iter_batched(
            CorrectionTable::new,
            |corrections| {
                let report = run_round(DispatchPolicy::MinPredictedLatency, &corrections, 8);
                criterion::black_box(report.stats.total_device_seconds())
            },
            criterion::BatchSize::LargeInput,
        );
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);

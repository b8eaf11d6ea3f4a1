//! Metric names (the contract with `BENCHMARK.json`), the arithmetic that
//! turns samples into them, and the readers for process CPU and memory.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::gen::FAMILIES;

pub const BACKENDS: [&str; 4] = ["quantum", "oscillator", "memcomputing", "cpu"];

/// End-to-end metrics `(name, unit, regression bound)`, printed by
/// `--trace 0`.
pub const END_TO_END: [(&str, &str, f64); 5] = [
    ("setup_s", "s", 0.25),
    ("throughput_jobs_s", "1/s", 0.25),
    ("latency_p50_ms", "ms", 0.25),
    ("latency_p75_ms", "ms", 0.25),
    ("cpu_ms_per_job", "ms", 0.25),
];

/// Per-layer metrics `(name, unit)`, printed by `--trace 1`. A workload
/// that cannot produce a metric (the direct workload has no wire, the
/// serving workloads make no direct calls) reports it as 0.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: &str, unit| m.push((name.to_string(), unit));
    add("latency_p95_ms", "ms");
    add("latency_p99_ms", "ms");
    add("peak_rss_mb", "MB");
    for codec in [
        "encode_request",
        "decode_request",
        "encode_response",
        "decode_response",
    ] {
        add(&format!("wire.{codec}_us"), "us");
    }
    add("wire.request_bytes", "B");
    add("wire.response_bytes", "B");
    add("admission.admit_us", "us");
    add("admission.routing_hash_us", "us");
    for counter in ["cache_hits", "cache_misses", "coalesced", "cache_evictions"] {
        add(&format!("admission.{counter}"), "count");
    }
    add("admission.hit_ratio", "ratio");
    add("accel.plan_us", "us");
    for b in BACKENDS {
        add(&format!("accel.execute_ms.{b}"), "ms");
    }
    for b in BACKENDS {
        add(&format!("accel.jobs.{b}"), "count");
    }
    for b in BACKENDS {
        add(&format!("accel.busy_share.{b}"), "ratio");
    }
    add("accel.modelled_device_s", "s");
    add("accel.operations", "count");
    add("accel.prediction_error", "ratio");
    add("accel.retries", "count");
    add("accel.reroutes", "count");
    for f in FAMILIES {
        add(&format!("accel.family.{f}.p50_ms"), "ms");
        add(&format!("accel.family.{f}.p99_ms"), "ms");
    }
    add("accel.device_host_p50_ms", "ms");
    add("runtime.roundtrip_us", "us");
    add("runtime.self_us", "us");
    add("runtime.rejected", "count");
    add("runtime.timed_out", "count");
    add("server.roundtrip_us", "us");
    add("server.self_us", "us");
    add("server.non_device_p50_us", "us");
    add("cluster.roundtrip_us", "us");
    add("cluster.self_us", "us");
    add("cluster.reroutes", "count");
    add("cluster.shard_balance", "ratio");
    add("cluster.computed_jobs", "count");
    add("quantum.apply_single_mgates_s", "M/s");
    add("quantum.apply_controlled_mgates_s", "M/s");
    add("quantum.amp_updates_per_s", "1/s");
    add("quantum.grover_ms", "ms");
    add("quantum.shor_ms", "ms");
    add("osc.oscillator_steps_per_s", "1/s");
    add("osc.color_graph_ms", "ms");
    add("numerics.rk4_steps_per_s", "1/s");
    add("mem.dmm_clause_updates_per_s", "1/s");
    add("mem.dmm_steps", "count");
    add("mem.dmm_solve_ms", "ms");
    add("mem.qubo_ms", "ms");
    m
}

/// Measured values by metric name.
pub type Values = BTreeMap<String, f64>;

/// Nearest-rank percentile of an ascending slice (0 for an empty one).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(f64::total_cmp);
    samples
}

pub fn median(samples: Vec<f64>) -> f64 {
    percentile(&sorted(samples), 50.0)
}

/// Inserts the latency percentiles every workload reports, and the sample
/// count printed beside them.
pub fn latency_summary(latencies_ms: Vec<f64>, values: &mut Values) {
    let latencies = sorted(latencies_ms);
    values.insert("latency_samples".into(), latencies.len() as f64);
    for (name, p) in [
        ("latency_p50_ms", 50.0),
        ("latency_p75_ms", 75.0),
        ("latency_p95_ms", 95.0),
        ("latency_p99_ms", 99.0),
    ] {
        values.insert(name.into(), percentile(&latencies, p));
    }
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// User + system CPU seconds of this process so far.
///
/// Fields 14 and 15 of `/proc/self/stat`, in clock ticks; Linux reports
/// them at `USER_HZ`, which is 100 on every architecture.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may hold spaces; fields resume after ')'.
    let rest = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let ticks: f64 = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse::<f64>().ok())
        .sum();
    ticks / 100.0
}

/// Peak resident set size of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The result line the driver reads: one JSON object with exactly the keys
/// `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(
    attempted: u64,
    failed: u64,
    names: &[(String, &'static str)],
    values: &Values,
) -> String {
    let mut line = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        failed == 0
    );
    for (i, (name, unit)) in names.iter().enumerate() {
        let value = values.get(name).copied().unwrap_or(0.0);
        let sep = if i == 0 { "" } else { ", " };
        // `{:?}` prints an f64 with every digit it has, and always as a
        // valid JSON number for finite values.
        let value = if value.is_finite() { value } else { 0.0 };
        let _ = write!(
            line,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    line.push_str("}}");
    line
}

/// Reads back what [`result_line`] wrote: `(attempted, failed, values)`.
/// Only this program's own output is ever parsed.
pub fn parse_result_line(line: &str) -> Option<(u64, u64, Values)> {
    let (head, metrics) = line.split_once("\"metrics\": {")?;
    let field = |key: &str| -> Option<&str> {
        let rest = head.split_once(&format!("\"{key}\": "))?.1;
        rest.split(',').next().map(str::trim)
    };
    let attempted = field("attempted")?.parse().ok()?;
    let failed = field("failed")?.parse().ok()?;
    let mut values = Values::new();
    for entry in metrics.split("\"}") {
        let Some((name, rest)) = entry.split_once("\": {\"value\": ") else {
            continue;
        };
        let name = name.rsplit('"').next()?;
        let value = rest.split(',').next()?.trim().parse().ok()?;
        values.insert(name.to_string(), value);
    }
    Some((attempted, failed, values))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_nearest_rank() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 50.0);
        assert_eq!(percentile(&s, 95.0), 95.0);
        assert_eq!(percentile(&s, 99.0), 99.0);
        assert_eq!(percentile(&s, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(percentile(&[], 99.0), 0.0);
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn proc_readers_return_something() {
        assert!(peak_rss_mb() > 0.0);
        assert!(cpu_seconds() >= 0.0);
    }

    #[test]
    fn result_line_round_trips() {
        let names = vec![("a.b_us".to_string(), "us"), ("c".to_string(), "1/s")];
        let mut values = Values::new();
        values.insert("a.b_us".into(), 1.2034);
        values.insert("c".into(), 27_000.0);
        let line = result_line(10, 0, &names, &values);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0"));
        let (attempted, failed, parsed) = parse_result_line(&line).unwrap();
        assert_eq!((attempted, failed), (10, 0));
        assert_eq!(parsed, values);
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        // Skipped outside the repo (the package may be built on its own).
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let Ok(json) = std::fs::read_to_string(path) else {
            return;
        };
        let section = |key: &str| -> Vec<String> {
            let body = json.split_once(&format!("\"{key}\": [")).unwrap().1;
            let body = body.split_once("\n  ]").unwrap().0;
            body.split("\"name\": \"")
                .skip(1)
                .map(|s| s.split('"').next().unwrap().to_string())
                .collect()
        };
        let e2e: Vec<String> = END_TO_END.iter().map(|m| m.0.to_string()).collect();
        assert_eq!(section("end_to_end"), e2e);
        for (name, unit, bound) in END_TO_END {
            let line = json
                .lines()
                .find(|l| l.contains(&format!("\"name\": \"{name}\"")))
                .unwrap();
            assert!(line.contains(&format!("\"unit\": \"{unit}\"")), "{line}");
            assert!(line.contains(&format!("\"bound\": {bound}}}")), "{line}");
        }
        for (name, unit) in per_layer() {
            let line = json
                .lines()
                .find(|l| l.contains(&format!("\"name\": \"{name}\"")))
                .unwrap();
            assert!(line.contains(&format!("\"unit\": \"{unit}\"")), "{line}");
        }
        let layers: Vec<String> = per_layer().into_iter().map(|m| m.0).collect();
        assert_eq!(section("per_layer"), layers);
        let workloads: Vec<String> = crate::WORKLOADS.iter().map(|w| w.to_string()).collect();
        assert_eq!(section("workloads"), workloads);
    }
}

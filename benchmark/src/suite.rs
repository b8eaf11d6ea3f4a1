//! The whole benchmark in one command: every workload in its own child
//! process, a timed run and a traced run each, with fixed job counts so
//! exact quantities repeat. `--check` does it twice and compares.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::process::{Command, Stdio};

use crate::metrics::{self, Values, END_TO_END};
use crate::{direct, serve, Failure, WORKLOADS};

/// `--smoke` divides every job count by this.
const SMOKE_DIVISOR: usize = 50;

/// What one workload's two runs (timed, traced) produced.
#[derive(Debug, Default, Clone)]
struct WorkloadResult {
    attempted: u64,
    failed: u64,
    end_to_end: Values,
    per_layer: Values,
    exact: BTreeMap<String, String>,
}

type SetResult = BTreeMap<&'static str, WorkloadResult>;

fn fixed_jobs(workload: &str) -> usize {
    serve::Spec::named(workload).map_or(direct::FIXED_CALLS, |spec| spec.fixed_jobs)
}

/// What one child process reported.
struct ChildOutput {
    attempted: u64,
    failed: u64,
    values: Values,
    exact: BTreeMap<String, String>,
}

/// Runs one child to completion, echoing its output, and returns its
/// result line and `exact` lines.
fn run_child(
    workload: &str,
    seed: u64,
    jobs: usize,
    trace: bool,
    results_dir: &Path,
) -> Result<ChildOutput, Failure> {
    let exe = std::env::current_exe().map_err(|e| Failure(format!("current_exe: {e}")))?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--jobs", &jobs.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--results-dir")
        .arg(results_dir)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| Failure(format!("spawning {workload}: {e}")))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if !output.status.success() {
        print!("{stdout}");
        return Err(Failure(format!("{workload} exited with {}", output.status)));
    }
    let mut exact = BTreeMap::new();
    let mut result = None;
    for line in stdout.lines() {
        if let Some(rest) = line.strip_prefix("exact ") {
            if let Some((name, value)) = rest.split_once(' ') {
                exact.insert(name.to_string(), value.to_string());
            }
        } else if line.starts_with('{') {
            result = metrics::parse_result_line(line);
        } else {
            println!("{line}");
        }
    }
    let (attempted, failed, values) =
        result.ok_or_else(|| Failure(format!("{workload} printed no result line")))?;
    Ok(ChildOutput {
        attempted,
        failed,
        values,
        exact,
    })
}

fn run_set(seed: u64, smoke: bool, results_dir: &Path) -> Result<SetResult, Failure> {
    let mut set = SetResult::new();
    for workload in WORKLOADS {
        let jobs = if smoke {
            (fixed_jobs(workload) / SMOKE_DIVISOR).max(1)
        } else {
            fixed_jobs(workload)
        };
        let mut result = WorkloadResult::default();
        for trace in [false, true] {
            let child = run_child(workload, seed, jobs, trace, results_dir)?;
            result.attempted += child.attempted;
            result.failed += child.failed;
            if trace {
                result.per_layer = child.values;
                // The traced run served the same jobs as the timed run, so
                // what both report (the digest) must agree.
                for (name, value) in child.exact {
                    if let Some(earlier) = result.exact.get(&name) {
                        if *earlier != value {
                            result.failed += 1;
                            println!(
                                "MISMATCH {workload}: {name} {earlier} (timed) vs {value} (traced)"
                            );
                        }
                    }
                    result.exact.insert(name, value);
                }
            } else {
                result.end_to_end = child.values;
                result.exact = child.exact;
            }
        }
        set.insert(workload, result);
    }
    Ok(set)
}

fn print_table(title: &str, set: &SetResult) {
    println!("\n== {title}");
    print!("{:<36}", "metric");
    for w in WORKLOADS {
        print!(" {w:>18}");
    }
    println!("  unit");
    let row = |name: &str, unit: &str, pick: &dyn Fn(&WorkloadResult) -> f64| {
        print!("{name:<36}");
        for w in WORKLOADS {
            print!(" {:>18.4}", pick(&set[w]));
        }
        println!("  {unit}");
    };
    for (name, unit, _) in END_TO_END {
        row(name, unit, &|r| {
            r.end_to_end.get(name).copied().unwrap_or(0.0)
        });
    }
    row("failed_share", "ratio", &|r| {
        r.failed as f64 / r.attempted.max(1) as f64
    });
    for (name, unit) in metrics::per_layer() {
        row(&name, unit, &|r| {
            r.per_layer.get(&name).copied().unwrap_or(0.0)
        });
    }
    for w in WORKLOADS {
        for (name, value) in &set[w].exact {
            println!("exact {w} {name} {value}");
        }
    }
}

fn to_json(seed: u64, smoke: bool, set: &SetResult) -> String {
    let mut out = format!("{{\n  \"seed\": {seed},\n  \"smoke\": {smoke},\n  \"workloads\": {{\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let r = &set[w];
        let _ = writeln!(out, "    \"{w}\": {{");
        let _ = writeln!(out, "      \"attempted\": {},", r.attempted);
        let _ = writeln!(out, "      \"failed\": {},", r.failed);
        for (key, values) in [("end_to_end", &r.end_to_end), ("per_layer", &r.per_layer)] {
            let body: Vec<String> = values
                .iter()
                .map(|(name, value)| format!("\"{name}\": {value:?}"))
                .collect();
            let _ = writeln!(out, "      \"{key}\": {{{}}},", body.join(", "));
        }
        let body: Vec<String> = r
            .exact
            .iter()
            .map(|(name, value)| format!("\"{name}\": \"{value}\""))
            .collect();
        let _ = writeln!(out, "      \"exact\": {{{}}}", body.join(", "));
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        let _ = writeln!(out, "    }}{comma}");
    }
    out.push_str("  }\n}\n");
    out
}

/// Compares two sets of runs of the same code; returns the violations.
fn compare(a: &SetResult, b: &SetResult) -> Vec<String> {
    let mut violations = Vec::new();
    for w in WORKLOADS {
        let (ra, rb) = (&a[w], &b[w]);
        for (name, _, bound) in END_TO_END {
            let (va, vb) = (ra.end_to_end[name], rb.end_to_end[name]);
            let gap = (va - vb).abs() / va.abs().min(vb.abs()).max(f64::MIN_POSITIVE);
            if gap > bound {
                violations.push(format!(
                    "{w} {name}: {va:.4} vs {vb:.4} differ by {:.1} % (bound {:.0} %)",
                    gap * 100.0,
                    bound * 100.0
                ));
            }
        }
        if rb.failed > ra.failed {
            violations.push(format!(
                "{w} failed_share rose: {} then {} failed",
                ra.failed, rb.failed
            ));
        }
        for (name, va) in &ra.exact {
            let vb = rb.exact.get(name);
            if vb != Some(va) {
                violations.push(format!("{w} {name}: {va} vs {vb:?} must be identical"));
            }
        }
    }
    violations
}

/// Runs the suite; the exit code is 0 only if nothing failed and, under
/// `--check`, both sets agree.
pub fn run(seed: u64, smoke: bool, check: bool, results_dir: &Path) -> Result<i32, Failure> {
    let a = run_set(seed, smoke, results_dir)?;
    print_table(if check { "set A" } else { "results" }, &a);
    std::fs::create_dir_all(results_dir)
        .and_then(|()| std::fs::write(results_dir.join("summary.json"), to_json(seed, smoke, &a)))
        .map_err(|e| Failure(format!("writing summary.json: {e}")))?;
    let mut failed: u64 = a.values().map(|r| r.failed).sum();
    let mut violations = Vec::new();
    if check {
        let b = run_set(seed, smoke, results_dir)?;
        print_table("set B", &b);
        failed += b.values().map(|r| r.failed).sum::<u64>();
        violations = compare(&a, &b);
        println!("\n== check: set A against set B");
        if violations.is_empty() {
            println!("every end-to-end metric within its bound, every exact quantity identical");
        }
        for v in &violations {
            println!("VIOLATION {v}");
        }
    }
    if failed > 0 {
        println!("\n{failed} jobs failed");
    }
    Ok(i32::from(failed > 0 || !violations.is_empty()))
}

//! The experiments binary: regenerates every figure and quantitative claim
//! of the paper (EXPERIMENTS.md) as a seeded table.
//!
//! `cargo run --release -q -p bench` prints every table to stdout in the
//! order of [`EXPERIMENTS`]; `cargo run --release -q -p bench -- E4 A2`
//! prints only the named ones. Each experiment's wall time goes to stderr as
//! one line (`time E5 15.2 s`), so stdout holds only deterministic text: it
//! is checked in as `EXPERIMENTS.exact` and diffed by `scripts/verify.sh`.

use std::process::ExitCode;
use std::time::Instant;

mod ablation_basis;
mod ablation_routing;
mod ablation_window;
mod dmm_dynamics;
mod dmm_noise;
mod dna_similarity;
mod fig3_locking;
mod fig5_norms;
mod fig6_corner;
mod hetero_dispatch;
mod rbm_training;
mod sat_scaling;
mod shor;
mod spin_glass;
mod stack_latency;

/// One experiment: its EXPERIMENTS.md id, its module, and the function
/// that prints its table.
type Experiment = (&'static str, &'static str, fn());

/// Every experiment, in the order a full run prints them.
const EXPERIMENTS: [Experiment; 15] = [
    ("E1", "fig3_locking", fig3_locking::run),
    ("E2", "fig5_norms", fig5_norms::run),
    ("E3", "fig6_corner", fig6_corner::run),
    ("E4", "sat_scaling", sat_scaling::run),
    ("E5", "dmm_noise", dmm_noise::run),
    ("E6", "dmm_dynamics", dmm_dynamics::run),
    ("E7", "rbm_training", rbm_training::run),
    ("E8", "spin_glass", spin_glass::run),
    ("E9", "shor", shor::run),
    ("E10", "dna_similarity", dna_similarity::run),
    ("E11", "stack_latency", stack_latency::run),
    ("E12", "hetero_dispatch", hetero_dispatch::run),
    ("A1", "ablation_basis", ablation_basis::run),
    ("A2", "ablation_window", ablation_window::run),
    ("A3", "ablation_routing", ablation_routing::run),
];

/// Prints a banner announcing which paper artifact an experiment reproduces.
fn banner(experiment: &str, artifact: &str) {
    println!();
    println!("==================================================================");
    println!("  {experiment} — reproduces {artifact}");
    println!("==================================================================");
}

/// The experiments named by `ids`, in that order; all of them when `ids`
/// is empty. An unknown id is an error that lists the valid ones.
fn select(ids: &[String]) -> Result<Vec<&'static Experiment>, String> {
    if ids.is_empty() {
        return Ok(EXPERIMENTS.iter().collect());
    }
    ids.iter()
        .map(|id| {
            EXPERIMENTS.iter().find(|e| e.0 == id).ok_or_else(|| {
                let valid: Vec<String> = EXPERIMENTS
                    .iter()
                    .map(|(id, name, _)| format!("{id} ({name})"))
                    .collect();
                format!("unknown experiment `{id}`; valid ids: {}", valid.join(", "))
            })
        })
        .collect()
}

fn main() -> ExitCode {
    let ids: Vec<String> = std::env::args().skip(1).collect();
    let selected = match select(&ids) {
        Ok(selected) => selected,
        Err(message) => {
            eprintln!("bench: {message}");
            return ExitCode::FAILURE;
        }
    };
    for (id, _, run) in selected {
        let start = Instant::now();
        run();
        eprintln!("time {id} {:.1} s", start.elapsed().as_secs_f64());
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_unknown_id_is_refused_with_the_valid_ids() {
        let err = select(&["E99".to_string()]).expect_err("E99 is not an experiment");
        for (id, name, _) in &EXPERIMENTS {
            assert!(err.contains(&format!("{id} ({name})")), "{err}");
        }
        assert!(select(&["E4".to_string(), "e4".to_string()]).is_err());
    }

    #[test]
    fn ids_select_in_the_order_given() {
        let picked = select(&["A2".to_string(), "E4".to_string()]).expect("known ids");
        let names: Vec<&str> = picked.iter().map(|e| e.1).collect();
        assert_eq!(names, ["ablation_window", "sat_scaling"]);
        assert_eq!(select(&[]).expect("all").len(), EXPERIMENTS.len());
    }

    #[test]
    fn ids_and_modules_are_distinct() {
        for (i, a) in EXPERIMENTS.iter().enumerate() {
            for b in &EXPERIMENTS[i + 1..] {
                assert_ne!(a.0, b.0, "duplicate id");
                assert_ne!(a.1, b.1, "duplicate module");
            }
        }
    }

    #[test]
    fn every_experiment_has_a_record_in_experiments_md() {
        let record = include_str!("../../../EXPERIMENTS.md");
        for (id, _, _) in &EXPERIMENTS {
            let heading = format!("## {id} ");
            assert!(
                record.lines().any(|line| line.starts_with(&heading)),
                "EXPERIMENTS.md has no `{heading}…` section"
            );
        }
    }
}

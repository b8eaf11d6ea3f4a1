//! End-to-end checks of the rule families over the fixture files: each
//! positive fixture must produce exactly the expected `rule @ line`
//! diagnostics, and each negative fixture must be silent.

use lint::check_files;
use std::path::PathBuf;

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// `(rule, line)` pairs for one fixture, in diagnostic order.
fn findings(name: &str) -> Vec<(String, u32)> {
    let report = check_files(&[fixture(name)]).expect("fixture must be readable");
    report
        .diags
        .iter()
        .map(|d| (d.rule.to_string(), d.line))
        .collect()
}

#[test]
fn determinism_violations_fire_at_the_right_lines() {
    assert_eq!(
        findings("determinism_bad.rs"),
        vec![
            ("determinism::wall-clock".to_string(), 4),
            ("determinism::system-time".to_string(), 9),
            ("determinism::system-time".to_string(), 10),
            ("determinism::thread-rng".to_string(), 14),
            ("determinism::hash-iter".to_string(), 20),
        ]
    );
}

#[test]
fn admission_tier_mistakes_fire_at_the_right_lines() {
    // The admission crate sits in every rule family: deterministic (cache
    // keys and recency must replay), hash-iter-free (eviction order), and
    // panic-free (a cache lookup is a hostile-input surface).
    assert_eq!(
        findings("admission_bad.rs"),
        vec![
            ("determinism::wall-clock".to_string(), 6),
            ("determinism::hash-iter".to_string(), 12),
            ("panic::unwrap".to_string(), 19),
            ("panic::index".to_string(), 23),
        ]
    );
}

#[test]
fn cluster_tier_mistakes_fire_at_the_right_lines() {
    // The cluster crate sits in both point-rule families: deterministic
    // (heartbeat ticks and ring placement must replay) and panic-free
    // (the router faces hostile shard responses).
    assert_eq!(
        findings("cluster_bad.rs"),
        vec![
            ("determinism::wall-clock".to_string(), 6),
            ("panic::index".to_string(), 11),
            ("panic::unwrap".to_string(), 15),
        ]
    );
}

#[test]
fn annotated_escapes_silence_the_determinism_rules() {
    assert_eq!(findings("determinism_allow.rs"), vec![]);
}

#[test]
fn panic_violations_fire_at_the_right_lines() {
    assert_eq!(
        findings("panic_bad.rs"),
        vec![
            ("panic::index".to_string(), 4),
            ("panic::unwrap".to_string(), 8),
            ("panic::expect".to_string(), 12),
            ("panic::panic".to_string(), 16),
            ("panic::todo".to_string(), 20),
            ("panic::unimplemented".to_string(), 24),
        ]
    );
}

#[test]
fn hygienic_code_and_test_modules_are_silent() {
    assert_eq!(findings("panic_ok.rs"), vec![]);
}

#[test]
fn blocking_on_the_loop_path_fires_at_the_right_lines() {
    // Line 7 is direct (`thread::sleep` in `event_loop`); line 13 is
    // reached through the call graph (`event_loop -> drain_one`). The
    // identical lock in `background` (line 18) is off-path and silent.
    assert_eq!(
        findings("eventloop_bad.rs"),
        vec![
            ("eventloop::blocking".to_string(), 7),
            ("eventloop::blocking".to_string(), 13),
        ]
    );
}

#[test]
fn annotated_and_deferred_loop_blocking_is_silent() {
    assert_eq!(findings("eventloop_allow.rs"), vec![]);
}

#[test]
fn stale_allow_is_an_error_with_a_position() {
    let report = check_files(&[fixture("allow_stale.rs")]).expect("fixture must be readable");
    assert_eq!(
        findings("allow_stale.rs"),
        vec![("allow::unused".to_string(), 4)]
    );
    assert_eq!(report.errors(), 1, "{:?}", report.diags);
}

//! The self-check: the workspace this lint ships in must itself be
//! lint-clean, and each analysis rule must bite when a violation is
//! injected into the real sources.

use lint::source::SourceFile;
use std::path::PathBuf;

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

#[test]
fn workspace_is_lint_clean() {
    let report = lint::check_workspace(&workspace_root()).expect("workspace must be readable");
    assert_eq!(report.errors(), 0, "{:#?}", report.diags);
    assert_eq!(report.warnings(), 0, "{:#?}", report.diags);
    assert!(report.files_scanned > 40, "scan looks truncated");
}

#[test]
fn admission_crate_is_in_every_rule_family() {
    // The admission tier caches results and canonicalizes kernels on the
    // serving path; dropping it from any list would let nondeterminism or
    // panics creep into cache keys unnoticed.
    assert!(lint::DETERMINISTIC_CRATES.contains(&"admission"));
    assert!(lint::HASH_ITER_CRATES.contains(&"admission"));
    assert!(lint::PANIC_CRATES.contains(&"admission"));
}

#[test]
fn serving_tier_is_in_the_analysis_rule_families() {
    // The readiness loop lives in cluster (poll) and server (dispatch).
    // The client is the designed blocking tier and stays out of the loop
    // analysis.
    assert!(lint::EVENTLOOP_CRATES.contains(&"cluster"));
    assert!(lint::EVENTLOOP_CRATES.contains(&"server"));
    assert!(lint::EVENTLOOP_EXEMPT_FILES.contains(&"client.rs"));
}

#[test]
fn blocking_call_injected_into_the_dispatch_path_fails() {
    // Tamper with the real event loop: park the thread between poll
    // rounds. The rule must name the op, the path, and the line.
    let server_path = workspace_root().join("crates/server/src/server.rs");
    let original = std::fs::read_to_string(&server_path).expect("server.rs must exist");
    let tampered_text = original.replace(
        "events.clear();",
        "std::thread::sleep(POLL_TIMEOUT);\n        events.clear();",
    );
    assert_ne!(original, tampered_text, "tamper target not found");
    let injected_line = tampered_text
        .lines()
        .position(|l| l.trim() == "std::thread::sleep(POLL_TIMEOUT);")
        .expect("injected line must exist") as u32
        + 1;
    let tampered = SourceFile::parse(
        PathBuf::from("crates/server/src/server.rs"),
        "server",
        &tampered_text,
    );

    let mut out = Vec::new();
    lint::rules::eventloop::check(&[&tampered], &mut out);
    assert!(
        out.iter().any(|d| d.rule == "eventloop::blocking"
            && d.line == injected_line
            && d.message.contains("thread::sleep")
            && d.message.contains("event_loop")),
        "{out:#?}"
    );
}

#[test]
fn accel_byte_parsers_are_under_the_panic_rules() {
    // The codec and the family body decoders live in `accel` but parse
    // attacker bytes. Tamper with both: an unchecked index in the reader,
    // and an unwrap on a count in a family decoder.
    let root = workspace_root();
    let tamper = |file: &str, from: &str, to: &str| {
        let path = format!("crates/accel/src/{file}");
        let original = std::fs::read_to_string(root.join(&path)).expect("source must exist");
        let tampered = original.replace(from, to);
        assert_ne!(original, tampered, "tamper target not found in {file}");
        SourceFile::parse(PathBuf::from(path), "accel", &tampered)
    };
    let codec = tamper(
        "codec.rs",
        "Ok(u8::from_be_bytes(self.take_arr(context)?))",
        "Ok(self.take(1, context)?[0])",
    );
    let family = tamper(
        "family.rs",
        "r.get_count(MAX_SEQUENCE_LEN, 8, \"marked items\")?",
        "r.get_count(MAX_SEQUENCE_LEN, 8, \"marked items\").unwrap()",
    );
    let report = lint::check_sources(&[codec, family]);
    let hit = |rule: &str, file: &str| {
        report
            .diags
            .iter()
            .any(|d| d.rule == rule && d.file.ends_with(file))
    };
    assert!(hit("panic::index", "codec.rs"), "{:#?}", report.diags);
    assert!(hit("panic::unwrap", "family.rs"), "{:#?}", report.diags);
}

#[test]
fn stale_allow_injected_into_a_clean_file_fails() {
    // Tamper with a clean file: an allow at the top that suppresses
    // nothing must surface as an error, not a warning.
    let ring_path = workspace_root().join("crates/cluster/src/ring.rs");
    let original = std::fs::read_to_string(&ring_path).expect("ring.rs must exist");
    let tampered_text =
        format!("// lint:allow(eventloop, reason = \"left behind by a refactor\")\n{original}");
    let tampered = SourceFile::parse(
        PathBuf::from("crates/cluster/src/ring.rs"),
        "cluster",
        &tampered_text,
    );
    let report = lint::check_sources(&[tampered]);
    assert!(
        report
            .diags
            .iter()
            .any(|d| d.rule == "allow::unused" && d.line == 1),
        "{:#?}",
        report.diags
    );
    assert_eq!(report.errors(), 1, "{:#?}", report.diags);
}

//! `rebootlint` — an offline, dependency-free invariant checker for this
//! workspace.
//!
//! The repo's core contract is that chaos runs, planner routing, and
//! cross-wire results replay byte-for-byte — served from a
//! single-threaded readiness loop fed hostile input. The runtime tests
//! enforce the contract after the fact; this crate enforces the
//! ingredients no test can see, with three rule families:
//!
//! | family | rule ids | scope |
//! |---|---|---|
//! | determinism | `determinism::{wall-clock, system-time, thread-rng, hash-iter}` | `accel`, `wire`, `mem`, `osc`, `quantum`, `numerics`, `runtime`, `admission`, `cluster` |
//! | panic-hygiene | `panic::{unwrap, expect, panic, todo, unimplemented, index}` | `wire`, `server`, `admission`, `cluster`, `accel::{host, codec}`, the `decode_*` fns of `accel::family` |
//! | event-loop | `eventloop::blocking` | `cluster`, `server` (minus the blocking client tier) |
//!
//! The first two work on flat token scans; event-loop sits on the
//! [`callgraph`] built from the lexer's function items. The wire layout
//! is not a lint concern: the byte-exact goldens in
//! `tests/wire_golden.rs` and `tests/family_registry.rs` are its one
//! guard. Neither are decode allocations (`tests/alloc_budget.rs` decodes
//! forged frames of every family under a 4 KiB bound) nor lock order
//! (DESIGN.md §8: every lock a nested acquisition reaches is a leaf).
//!
//! Legitimate violations are annotated in place:
//!
//! ```text
//! // lint:allow(wall-clock, reason = "latency stamping; never feeds a result")
//! let now = Instant::now();
//! ```
//!
//! An allow without a reason is itself an error, and so is an allow that
//! suppresses nothing — stale suppressions hide exactly the regressions
//! the lint exists to catch.

pub mod callgraph;
pub mod diag;
pub mod lexer;
pub mod rules;
pub mod source;

use diag::{Diagnostic, Severity};
use source::SourceFile;
use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Crates whose results must replay byte-for-byte: wall-clock, ambient
/// entropy and epoch reads are forbidden (annotated escapes aside).
pub const DETERMINISTIC_CRATES: &[&str] = &[
    "accel",
    "wire",
    "mem",
    "osc",
    "quantum",
    "numerics",
    "runtime",
    "admission",
    "cluster",
];

/// The strictly pure subset where even hash-order iteration is forbidden.
/// `runtime`/`server`/`cluster` legitimately keep hash maps for keyed
/// lookup.
pub const HASH_ITER_CRATES: &[&str] = &[
    "accel",
    "wire",
    "mem",
    "osc",
    "quantum",
    "numerics",
    "admission",
];

/// Hostile-input and serving surfaces: library code must not panic.
pub const PANIC_CRATES: &[&str] = &["wire", "server", "admission", "cluster"];

/// Crates served from the single-threaded readiness loop: nothing
/// reachable from the dispatch path (`fn event_loop`, `poll.rs`) may
/// block without an audited annotation.
pub const EVENTLOOP_CRATES: &[&str] = &["cluster", "server"];

/// Files excluded from the event-loop call graph: the synchronous
/// client is the designed blocking tier, and its trivially named methods
/// (`submit`, `wait`, `stats`) would otherwise alias loop-side calls.
pub const EVENTLOOP_EXEMPT_FILES: &[&str] = &["client.rs"];

const MISSING_REASON: &str = "allow::missing-reason";
const UNUSED_ALLOW: &str = "allow::unused";

/// The outcome of a lint run.
#[derive(Debug)]
pub struct Report {
    pub diags: Vec<Diagnostic>,
    pub files_scanned: usize,
}

impl Report {
    #[must_use]
    pub fn errors(&self) -> usize {
        self.diags
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count()
    }

    #[must_use]
    pub fn warnings(&self) -> usize {
        self.diags.len() - self.errors()
    }
}

fn scanned_crates() -> BTreeSet<&'static str> {
    DETERMINISTIC_CRATES
        .iter()
        .chain(HASH_ITER_CRATES)
        .chain(PANIC_CRATES)
        .chain(EVENTLOOP_CRATES)
        .copied()
        .collect()
}

fn walk_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<_> = fs::read_dir(dir)?.collect::<Result<_, _>>()?;
    entries.sort_by_key(std::fs::DirEntry::file_name);
    for entry in entries {
        let path = entry.path();
        if path.is_dir() {
            walk_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Loads every `crates/<crate>/src/**/*.rs` for the crates any rule
/// applies to. Paths inside the returned files are workspace-relative.
pub fn load_workspace(root: &Path) -> io::Result<Vec<SourceFile>> {
    let mut files = Vec::new();
    for crate_name in scanned_crates() {
        let src_dir = root.join("crates").join(crate_name).join("src");
        if !src_dir.is_dir() {
            continue;
        }
        let mut paths = Vec::new();
        walk_rs(&src_dir, &mut paths)?;
        for path in paths {
            let text = fs::read_to_string(&path)?;
            let rel = path.strip_prefix(root).unwrap_or(&path).to_path_buf();
            files.push(SourceFile::parse(rel, crate_name, &text));
        }
    }
    Ok(files)
}

/// Runs every rule over pre-parsed sources, each on the crates it scopes.
#[must_use]
pub fn check_sources(files: &[SourceFile]) -> Report {
    let mut raw = Vec::new();

    for file in files {
        let c = file.crate_name.as_str();
        if DETERMINISTIC_CRATES.contains(&c) {
            rules::determinism::check(file, HASH_ITER_CRATES.contains(&c), &mut raw);
        }
        // Within `accel`, the dispatcher routes jobs and the byte codec
        // parses attacker bytes: both sit under the panic rules whole. In
        // `family.rs` only the frame body decoders (`decode_*`) parse
        // attacker bytes; they get the panic rules, validation and
        // canonicalization do not.
        let accel_file = if c == "accel" {
            file.path.file_name().and_then(|n| n.to_str())
        } else {
            None
        };
        if PANIC_CRATES.contains(&c) || matches!(accel_file, Some("host.rs" | "codec.rs")) {
            rules::panics::check(file, &mut raw);
        }
        if accel_file == Some("family.rs") {
            let mut found = Vec::new();
            rules::panics::check(file, &mut found);
            let decoders = fn_line_ranges(file, |name| name.starts_with("decode_"));
            raw.extend(found.into_iter().filter(|d| {
                decoders
                    .iter()
                    .any(|&(first, last)| (first..=last).contains(&d.line))
            }));
        }
    }

    let loop_files: Vec<&SourceFile> = files
        .iter()
        .filter(|f| EVENTLOOP_CRATES.contains(&f.crate_name.as_str()))
        .filter(|f| {
            !f.path
                .file_name()
                .is_some_and(|n| EVENTLOOP_EXEMPT_FILES.iter().any(|e| n == *e))
        })
        .collect();
    rules::eventloop::check(&loop_files, &mut raw);

    apply_allows(files, raw)
}

/// Inclusive source-line spans of the non-test functions whose name
/// passes `keep`.
fn fn_line_ranges(file: &SourceFile, keep: impl Fn(&str) -> bool) -> Vec<(u32, u32)> {
    file.fns
        .iter()
        .filter(|f| !f.in_test && keep(&f.name))
        .filter_map(|f| {
            let (_, close) = f.body?;
            Some((f.line, file.toks.get(close)?.line))
        })
        .collect()
}

/// Filters raw findings through the `lint:allow` escape hatches, demands
/// reasons, and flags stale allows.
fn apply_allows(files: &[SourceFile], raw: Vec<Diagnostic>) -> Report {
    let by_path: BTreeMap<String, &SourceFile> = files
        .iter()
        .map(|f| (f.path.display().to_string(), f))
        .collect();
    let mut used: BTreeMap<(String, usize), bool> = BTreeMap::new();
    let mut kept = Vec::new();

    for d in raw {
        let suppressed = by_path
            .get(&d.file)
            .and_then(|f| f.allow_for(d.rule, d.line).map(|idx| (d.file.clone(), idx)));
        match suppressed {
            Some(key) => {
                used.insert(key, true);
            }
            None => kept.push(d),
        }
    }

    for (path, file) in &by_path {
        for (idx, allow) in file.allows.iter().enumerate() {
            let was_used = used.contains_key(&(path.clone(), idx));
            if was_used && allow.reason.is_none() {
                kept.push(Diagnostic::error(
                    MISSING_REASON,
                    &file.path,
                    allow.line,
                    allow.col,
                    format!("`lint:allow({})` has no reason", allow.rule),
                    "write `// lint:allow(rule, reason = \"why this site is sound\")`",
                ));
            } else if !was_used {
                kept.push(Diagnostic::error(
                    UNUSED_ALLOW,
                    &file.path,
                    allow.line,
                    allow.col,
                    format!("`lint:allow({})` suppresses nothing", allow.rule),
                    "delete the stale annotation — a suppression outliving its \
                     violation hides the next regression at this site",
                ));
            }
        }
    }

    diag::sort(&mut kept);
    Report {
        diags: kept,
        files_scanned: files.len(),
    }
}

/// Full workspace check: loads the sources under `root` and runs every
/// rule.
pub fn check_workspace(root: &Path) -> io::Result<Report> {
    Ok(check_sources(&load_workspace(root)?))
}

/// Checks explicit files (fixtures, ad-hoc runs) with every rule, each
/// applied to every file regardless of crate scope.
pub fn check_files(paths: &[PathBuf]) -> io::Result<Report> {
    let mut files = Vec::new();
    for path in paths {
        let text = fs::read_to_string(path)?;
        files.push(SourceFile::parse(path.clone(), "fixture", &text));
    }
    let mut raw = Vec::new();
    for file in &files {
        rules::determinism::check(file, true, &mut raw);
        rules::panics::check(file, &mut raw);
    }
    let refs: Vec<&SourceFile> = files.iter().collect();
    rules::eventloop::check(&refs, &mut raw);
    Ok(apply_allows(&files, raw))
}

/// Ascends from `start` to the first directory whose `Cargo.toml`
/// declares `[workspace]`.
#[must_use]
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start);
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d.to_path_buf());
            }
        }
        dir = d.parent();
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn src_file(name: &str, crate_name: &str, src: &str) -> SourceFile {
        SourceFile::parse(PathBuf::from(name), crate_name, src)
    }

    #[test]
    fn allows_suppress_and_track_usage() {
        let f = src_file(
            "crates/runtime/src/x.rs",
            "runtime",
            "fn f() {\n    // lint:allow(wall-clock, reason = \"latency only\")\n    let t = Instant::now();\n}\n",
        );
        let report = check_sources(std::slice::from_ref(&f));
        assert!(
            report
                .diags
                .iter()
                .all(|d| d.rule != "determinism::wall-clock"),
            "{:?}",
            report.diags
        );
    }

    #[test]
    fn allow_without_reason_is_an_error() {
        let f = src_file(
            "crates/runtime/src/x.rs",
            "runtime",
            "fn f() {\n    // lint:allow(wall-clock)\n    let t = Instant::now();\n}\n",
        );
        let report = check_sources(std::slice::from_ref(&f));
        assert!(report
            .diags
            .iter()
            .any(|d| d.rule == "allow::missing-reason"));
    }

    #[test]
    fn stale_allow_is_an_error() {
        let f = src_file(
            "crates/runtime/src/x.rs",
            "runtime",
            "// lint:allow(wall-clock, reason = \"nothing here\")\nfn f() {}\n",
        );
        let report = check_sources(std::slice::from_ref(&f));
        assert!(report.diags.iter().any(|d| d.rule == "allow::unused"));
        assert_eq!(report.errors(), 1, "{:?}", report.diags);
    }

    #[test]
    fn rules_are_scoped_per_crate() {
        // unwrap in runtime is fine (panic rules target wire/server);
        // Instant::now in server is fine (determinism targets the
        // deterministic crates).
        let runtime = src_file(
            "crates/runtime/src/x.rs",
            "runtime",
            "fn f(x: Option<u8>) -> u8 { x.unwrap() }",
        );
        let server = src_file(
            "crates/server/src/y.rs",
            "server",
            "fn g() { let t = Instant::now(); go(t); }",
        );
        let report = check_sources(&[runtime, server]);
        assert_eq!(report.errors(), 0, "{:?}", report.diags);
    }
}

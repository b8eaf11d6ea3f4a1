//! Wire-freeze: the encode/decode paths in `crates/wire` (and what they
//! sit on in `accel`: the byte codec and the family-owned frame bodies)
//! are an interface contract (like a QISA layer) — once shipped, the byte
//! layout must never drift silently.
//! This rule records a token-level source hash for every frozen function,
//! plus the message tag table and the protocol version constant, in a
//! registry file. Any edit fails the
//! lint until the registry is consciously re-blessed with
//! `cargo run -p lint -- --bless-wire`.
//!
//! Hashes are computed over the token stream, so comments and formatting
//! can change freely; code changes cannot.

use crate::diag::Diagnostic;
use crate::lexer::TokKind;
use crate::source::SourceFile;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

pub const FROZEN: &str = "wire::frozen";
pub const TAG_DUP: &str = "wire::tag-dup";
pub const VERSION_FREEZE: &str = "wire::version-freeze";

/// The frozen surface, by file stem (`codec` and `family` are
/// `crates/accel/src`, the rest are `crates/wire/src`). Every function
/// named here is part of the shipped byte layout (or the version check
/// that guards it); a `family` name covers every family's method of that
/// name, since [`fn_hash`] folds same-named functions in source order.
pub const FROZEN_FNS: &[(&str, &[&str])] = &[
    (
        "codec",
        &[
            "put_u8",
            "put_u16",
            "put_u32",
            "put_u64",
            "put_i64",
            "put_f64",
            "put_opt_u64",
            "put_count",
            "put_str",
            "put_bytes",
            "get_u8",
            "get_u16",
            "get_u32",
            "get_u64",
            "get_i64",
            "get_f64",
            "get_usize",
            "get_opt_u64",
            "get_count",
            "get_str",
            "get_bytes",
        ],
    ),
    (
        "family",
        &[
            "encode_body",
            "decode_body",
            "encode_result",
            "decode_result",
            "decode_bit",
        ],
    ),
    (
        "frame",
        &["write_frame", "frame_len", "read_frame", "next_frame"],
    ),
    (
        "message",
        &[
            "encode_request",
            "decode_request",
            "encode_response",
            "decode_response",
            "negotiate",
            "put_gossip_entries",
            "get_gossip_entries",
        ],
    ),
    (
        "payload",
        &[
            "put_frame",
            "get_frame",
            "put_kernel",
            "get_kernel",
            "put_kernel_result",
            "get_kernel_result",
            "put_cost",
            "get_cost",
            "put_policy",
            "get_policy",
            "put_outcome",
            "get_outcome",
            "put_stats",
            "get_stats",
        ],
    ),
];

fn fnv1a(bytes: &[u8], mut hash: u64) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Token-level hash of every non-test `fn <name>` in `file`, in source
/// order. `None` when the function does not exist.
#[must_use]
pub fn fn_hash(file: &SourceFile, name: &str) -> Option<u64> {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut found = false;
    for item in file.fns.iter().filter(|f| !f.in_test && f.name == name) {
        found = true;
        let end = match item.body {
            Some((_, close)) => close,
            None => item.kw,
        };
        for tok in &file.toks[item.kw..=end] {
            hash = fnv1a(tok.text.as_bytes(), hash);
            hash = fnv1a(&[0x1f], hash);
        }
    }
    found.then_some(hash)
}

/// Parses integer literals in any Rust base, ignoring `_` separators and
/// type suffixes.
pub(crate) fn parse_int(text: &str) -> Option<u64> {
    let clean: String = text.chars().filter(|c| *c != '_').collect();
    let (digits, radix) = match clean.as_str() {
        s if s.starts_with("0x") || s.starts_with("0X") => (&s[2..], 16),
        s if s.starts_with("0b") || s.starts_with("0B") => (&s[2..], 2),
        s if s.starts_with("0o") || s.starts_with("0O") => (&s[2..], 8),
        s => (s, 10),
    };
    // Integer type suffixes (`42u8`, `5i64`) start with `u` or `i`, which
    // are not digits in any Rust base.
    let mut digits = digits.to_string();
    if let Some(pos) = digits.find(['u', 'i']) {
        digits.truncate(pos);
    }
    u64::from_str_radix(&digits, radix).ok()
}

/// Extracts `const NAME: <ty> = <int>;` items whose name passes `keep`.
fn const_ints(file: &SourceFile, keep: impl Fn(&str) -> bool) -> Vec<(String, u64, u32, u32)> {
    let toks = &file.toks;
    let mut out = Vec::new();
    for i in 0..toks.len() {
        if file.is_test[i] || toks[i].text != "const" {
            continue;
        }
        let Some(name) = toks.get(i + 1).filter(|t| t.kind == TokKind::Ident) else {
            continue;
        };
        if !keep(&name.text) {
            continue;
        }
        // const NAME : TY = <num> ;
        if toks.get(i + 2).is_some_and(|t| t.text == ":")
            && toks.get(i + 4).is_some_and(|t| t.text == "=")
            && toks.get(i + 5).is_some_and(|t| t.kind == TokKind::Num)
        {
            if let Some(v) = parse_int(&toks[i + 5].text) {
                out.push((name.text.clone(), v, name.line, name.col));
            }
        }
    }
    out
}

/// Message tag constants (`const TAG_*`) from `message.rs`.
#[must_use]
pub fn tag_consts(file: &SourceFile) -> Vec<(String, u64, u32, u32)> {
    const_ints(file, |n| n.starts_with("TAG_"))
}

/// The protocol version constant from `lib.rs`.
#[must_use]
pub fn version_consts(file: &SourceFile) -> Vec<(String, u64, u32, u32)> {
    const_ints(file, |n| n == "PROTOCOL_VERSION")
}

/// Renders the registry for the current sources: the blessed state.
#[must_use]
pub fn bless(files: &BTreeMap<String, &SourceFile>) -> String {
    let mut out = String::from(
        "# rebootlint wire-freeze registry.\n\
         # Token-level hashes of the frozen encode/decode paths in crates/wire,\n\
         # accel::codec and accel::family, plus the tag table and the protocol version.\n\
         # Re-bless after an intentional layout change with:\n\
         #     cargo run -p lint -- --bless-wire\n",
    );
    for file in files.values() {
        for (name, value, _, _) in version_consts(file) {
            let _ = writeln!(out, "version {name} {value}");
        }
    }
    for file in files.values() {
        for (name, value, _, _) in tag_consts(file) {
            let _ = writeln!(out, "tag {name} {value:#04x}");
        }
    }
    for (stem, fns) in FROZEN_FNS {
        if let Some(file) = files.get(*stem) {
            for name in *fns {
                if let Some(h) = fn_hash(file, name) {
                    let _ = writeln!(out, "fn {stem}::{name} {h:016x}");
                }
            }
        }
    }
    out
}

#[derive(Debug, Default)]
struct Registry {
    versions: BTreeMap<String, u64>,
    tags: BTreeMap<String, u64>,
    fns: BTreeMap<String, u64>,
}

fn parse_registry(text: &str) -> Registry {
    let mut reg = Registry::default();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        match (parts.next(), parts.next(), parts.next()) {
            (Some("version"), Some(name), Some(v)) => {
                if let Some(v) = parse_int(v) {
                    reg.versions.insert(name.to_string(), v);
                }
            }
            (Some("tag"), Some(name), Some(v)) => {
                if let Some(v) = parse_int(v) {
                    reg.tags.insert(name.to_string(), v);
                }
            }
            (Some("fn"), Some(name), Some(h)) => {
                if let Ok(h) = u64::from_str_radix(h, 16) {
                    reg.fns.insert(name.to_string(), h);
                }
            }
            _ => {}
        }
    }
    reg
}

const BLESS_HELP: &str =
    "if the layout change is intentional, re-bless with `cargo run -p lint -- --bless-wire` \
     (and bump PROTOCOL_VERSION for behavioural changes)";

/// Checks the wire sources against the registry text.
///
/// `files` maps the file stem (`codec`, `family`, `frame`, `message`,
/// `payload`, `lib`) to its parsed source — see [`crate::frozen_files`].
pub fn check(
    files: &BTreeMap<String, &SourceFile>,
    registry_text: &str,
    registry_path: &Path,
    out: &mut Vec<Diagnostic>,
) {
    let reg = parse_registry(registry_text);

    // 1. Frozen function hashes.
    for (stem, fns) in FROZEN_FNS {
        let Some(file) = files.get(*stem) else {
            out.push(Diagnostic::error(
                FROZEN,
                registry_path,
                1,
                1,
                format!("frozen wire file `{stem}.rs` is missing"),
                BLESS_HELP,
            ));
            continue;
        };
        for name in *fns {
            let key = format!("{stem}::{name}");
            let current = fn_hash(file, name);
            let blessed = reg.fns.get(&key).copied();
            match (current, blessed) {
                (Some(c), Some(b)) if c == b => {}
                (Some(_), Some(_)) => {
                    let line = file
                        .fns
                        .iter()
                        .find(|f| !f.in_test && f.name == *name)
                        .map_or(1, |f| f.line);
                    out.push(Diagnostic::error(
                        FROZEN,
                        &file.path,
                        line,
                        1,
                        format!("frozen wire layout function `{key}` was edited without re-blessing the registry"),
                        BLESS_HELP,
                    ));
                }
                (Some(_), None) => {
                    let line = file
                        .fns
                        .iter()
                        .find(|f| !f.in_test && f.name == *name)
                        .map_or(1, |f| f.line);
                    out.push(Diagnostic::error(
                        FROZEN,
                        &file.path,
                        line,
                        1,
                        format!(
                            "wire layout function `{key}` is not recorded in the freeze registry"
                        ),
                        BLESS_HELP,
                    ));
                }
                (None, _) => {
                    out.push(Diagnostic::error(
                        FROZEN,
                        &file.path,
                        1,
                        1,
                        format!("frozen wire layout function `{key}` no longer exists"),
                        BLESS_HELP,
                    ));
                }
            }
        }
    }
    for key in reg.fns.keys() {
        let known = FROZEN_FNS
            .iter()
            .any(|(stem, fns)| fns.iter().any(|name| format!("{stem}::{name}") == *key));
        if !known {
            out.push(Diagnostic::warning(
                FROZEN,
                registry_path,
                1,
                1,
                format!("stale registry entry `{key}` names no frozen function"),
                "re-bless to drop it",
            ));
        }
    }

    // 2. Tag table: registry equality plus uniqueness, parsed live.
    if let Some(message) = files.get("message") {
        let tags = tag_consts(message);
        let mut by_value: BTreeMap<u64, &str> = BTreeMap::new();
        for (name, value, line, col) in &tags {
            if let Some(first) = by_value.insert(*value, name) {
                out.push(Diagnostic::error(
                    TAG_DUP,
                    &message.path,
                    *line,
                    *col,
                    format!(
                        "message tag `{name}` reuses value {value:#04x} already taken by `{first}`"
                    ),
                    "every request/response tag must be unique across the protocol",
                ));
            }
            match reg.tags.get(name) {
                Some(b) if b == value => {}
                Some(b) => {
                    out.push(Diagnostic::error(
                        FROZEN,
                        &message.path,
                        *line,
                        *col,
                        format!("frozen tag `{name}` changed from {b:#04x} to {value:#04x}"),
                        BLESS_HELP,
                    ));
                }
                None => {
                    out.push(Diagnostic::error(
                        FROZEN,
                        &message.path,
                        *line,
                        *col,
                        format!(
                            "tag `{name}` ({value:#04x}) is not recorded in the freeze registry"
                        ),
                        BLESS_HELP,
                    ));
                }
            }
        }
        for name in reg.tags.keys() {
            if !tags.iter().any(|(n, ..)| n == name) {
                out.push(Diagnostic::error(
                    FROZEN,
                    &message.path,
                    1,
                    1,
                    format!("frozen tag `{name}` no longer exists in message.rs"),
                    BLESS_HELP,
                ));
            }
        }
    }

    // 3. The protocol version constant.
    if let Some(lib) = files.get("lib") {
        let versions = version_consts(lib);
        for (name, value, line, col) in &versions {
            match reg.versions.get(name) {
                Some(b) if b == value => {}
                Some(b) => {
                    out.push(Diagnostic::error(
                        VERSION_FREEZE,
                        &lib.path,
                        *line,
                        *col,
                        format!("`{name}` changed from {b} to {value} without re-blessing"),
                        BLESS_HELP,
                    ));
                }
                None => {
                    out.push(Diagnostic::error(
                        VERSION_FREEZE,
                        &lib.path,
                        *line,
                        *col,
                        format!("`{name}` is not recorded in the freeze registry"),
                        BLESS_HELP,
                    ));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn wire_file(stem: &str, src: &str) -> SourceFile {
        SourceFile::parse(PathBuf::from(format!("{stem}.rs")), "wire", src)
    }

    #[test]
    fn hash_ignores_comments_but_not_code() {
        let a = wire_file("codec", "fn get_u8(x: u8) -> u8 { x + 1 }");
        let b = wire_file(
            "codec",
            "// changed comment\nfn get_u8(x: u8)   -> u8 { x + 1 }",
        );
        let c = wire_file("codec", "fn get_u8(x: u8) -> u8 { x + 2 }");
        assert_eq!(fn_hash(&a, "get_u8"), fn_hash(&b, "get_u8"));
        assert_ne!(fn_hash(&a, "get_u8"), fn_hash(&c, "get_u8"));
        assert_eq!(fn_hash(&a, "missing"), None);
    }

    #[test]
    fn edit_without_bless_is_caught() {
        let lib = wire_file("lib", "pub const PROTOCOL_VERSION: u16 = 3;");
        let msg = wire_file("message", "const TAG_HELLO: u8 = 0x01;\nfn encode_request() {}\nfn decode_request() {}\nfn encode_response() {}\nfn decode_response() {}\nfn negotiate() {}\nfn put_gossip_entries() {}\nfn get_gossip_entries() {}");
        let mut files = BTreeMap::new();
        files.insert("lib".to_string(), &lib);
        files.insert("message".to_string(), &msg);
        let blessed = bless(&files);

        let mut out = Vec::new();
        check(&files, &blessed, &PathBuf::from("reg"), &mut out);
        let fn_errors: Vec<_> = out
            .iter()
            .filter(|d| d.file.ends_with("message.rs"))
            .collect();
        assert!(
            fn_errors.is_empty(),
            "clean sources must pass: {fn_errors:?}"
        );

        let edited = wire_file("message", "const TAG_HELLO: u8 = 0x01;\nfn encode_request() { changed(); }\nfn decode_request() {}\nfn encode_response() {}\nfn decode_response() {}\nfn negotiate() {}\nfn put_gossip_entries() {}\nfn get_gossip_entries() {}");
        let mut files2 = BTreeMap::new();
        files2.insert("lib".to_string(), &lib);
        files2.insert("message".to_string(), &edited);
        let mut out2 = Vec::new();
        check(&files2, &blessed, &PathBuf::from("reg"), &mut out2);
        assert!(out2
            .iter()
            .any(|d| d.rule == FROZEN && d.message.contains("message::encode_request`")));
    }

    #[test]
    fn duplicate_tags_and_version_bumps_are_errors() {
        let msg = wire_file(
            "message",
            "const TAG_A: u8 = 0x01;\nconst TAG_B: u8 = 0x01;",
        );
        let lib = wire_file("lib", "pub const PROTOCOL_VERSION: u16 = 4;");
        let mut files = BTreeMap::new();
        files.insert("message".to_string(), &msg);
        files.insert("lib".to_string(), &lib);
        let registry = "version PROTOCOL_VERSION 3\ntag TAG_A 0x01\ntag TAG_B 0x01\n";
        let mut out = Vec::new();
        check(&files, registry, &PathBuf::from("reg"), &mut out);
        assert!(out.iter().any(|d| d.rule == TAG_DUP));
        assert!(out
            .iter()
            .any(|d| d.rule == VERSION_FREEZE && d.message.contains("3 to 4")));
    }

    #[test]
    fn int_parsing_covers_rust_bases() {
        assert_eq!(parse_int("0x83"), Some(0x83));
        assert_eq!(parse_int("1_000"), Some(1000));
        assert_eq!(parse_int("0b101"), Some(5));
        assert_eq!(parse_int("42u8"), Some(42));
    }
}

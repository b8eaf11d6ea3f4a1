//! Family-tag-freeze: the kernel-family registry table in
//! `crates/accel/src/family.rs` (`accel::family::FAMILY_TAGS`) is wire
//! surface — each `(tag, name)` row is a family's canonical-key domain
//! byte and its generic-frame tag. Rows are append-only and
//! duplicate-free: renaming, retagging, or deleting a shipped row would
//! silently re-key admission caches and re-route family frames. This
//! rule records the table in a registry file and fails the lint on any
//! mutation that is not a blessed append
//! (`cargo run -p lint -- --bless-families`).

use crate::diag::Diagnostic;
use crate::lexer::TokKind;
use crate::source::SourceFile;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

pub const FROZEN: &str = "family::frozen";
pub const TAG_DUP: &str = "family::tag-dup";

const BLESS_HELP: &str =
    "new families are appended with a fresh tag and blessed with `cargo run -p lint -- \
     --bless-families`; shipped rows can never change — they name canonical cache keys \
     and family wire frames";

/// One `(tag, name)` row of the live `FAMILY_TAGS` table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FamilyRow {
    pub tag: u64,
    pub name: String,
    pub line: u32,
    pub col: u32,
}

/// The string literal token keeps its surrounding quotes; the registry
/// stores the bare name.
fn strip_quotes(text: &str) -> String {
    text.strip_prefix('"')
        .and_then(|t| t.strip_suffix('"'))
        .unwrap_or(text)
        .to_string()
}

/// Parses the `FAMILY_TAGS` table out of the token stream: every
/// `(<int>, "<name>")` tuple between `const FAMILY_TAGS` and its closing
/// `;`. The element type `(u16, &str)` contains no literals, so only the
/// data rows match. `None` when the table does not exist.
#[must_use]
pub fn family_rows(file: &SourceFile) -> Option<Vec<FamilyRow>> {
    let toks = &file.toks;
    let start = (0..toks.len()).find(|&i| {
        !file.is_test[i]
            && toks[i].text == "const"
            && toks.get(i + 1).is_some_and(|t| t.text == "FAMILY_TAGS")
    })?;
    let mut rows = Vec::new();
    let mut i = start;
    while i < toks.len() && toks[i].text != ";" {
        if toks[i].text == "("
            && toks.get(i + 1).is_some_and(|t| t.kind == TokKind::Num)
            && toks.get(i + 2).is_some_and(|t| t.text == ",")
            && toks.get(i + 3).is_some_and(|t| t.kind == TokKind::Str)
            && toks.get(i + 4).is_some_and(|t| t.text == ")")
        {
            if let Some(tag) = super::freeze::parse_int(&toks[i + 1].text) {
                rows.push(FamilyRow {
                    tag,
                    name: strip_quotes(&toks[i + 3].text),
                    line: toks[i + 1].line,
                    col: toks[i + 1].col,
                });
            }
            i += 5;
        } else {
            i += 1;
        }
    }
    Some(rows)
}

/// Renders the registry for the current source: the blessed state.
#[must_use]
pub fn bless(file: &SourceFile) -> String {
    let mut out = String::from(
        "# rebootlint family-tag registry.\n\
         # The shipped (tag, name) rows of accel::family::FAMILY_TAGS —\n\
         # canonical-key domain bytes doubling as generic-frame tags.\n\
         # Rows are append-only; bless a new family with:\n\
         #     cargo run -p lint -- --bless-families\n",
    );
    for row in family_rows(file).unwrap_or_default() {
        let _ = writeln!(out, "family {} {}", row.tag, row.name);
    }
    out
}

fn parse_registry(text: &str) -> Vec<(u64, String)> {
    let mut rows = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        if let (Some("family"), Some(tag), Some(name)) = (parts.next(), parts.next(), parts.next())
        {
            if let Some(tag) = super::freeze::parse_int(tag) {
                rows.push((tag, name.to_string()));
            }
        }
    }
    rows
}

/// Checks the live `FAMILY_TAGS` table in `file` against the registry
/// text: duplicate-free, and append-only relative to the blessed rows.
pub fn check(
    file: &SourceFile,
    registry_text: &str,
    registry_path: &Path,
    out: &mut Vec<Diagnostic>,
) {
    let Some(rows) = family_rows(file) else {
        out.push(Diagnostic::error(
            FROZEN,
            &file.path,
            1,
            1,
            "the FAMILY_TAGS table is missing from the family registry source",
            BLESS_HELP,
        ));
        return;
    };
    let blessed = parse_registry(registry_text);

    // 1. Duplicate tags or names among the live rows.
    let mut by_tag: BTreeMap<u64, &FamilyRow> = BTreeMap::new();
    let mut by_name: BTreeMap<&str, &FamilyRow> = BTreeMap::new();
    for row in &rows {
        if let Some(first) = by_tag.insert(row.tag, row) {
            out.push(Diagnostic::error(
                TAG_DUP,
                &file.path,
                row.line,
                row.col,
                format!(
                    "family `{}` reuses tag {} already taken by `{}`",
                    row.name, row.tag, first.name
                ),
                "every family keeps a unique wire tag / canonical-key domain byte forever",
            ));
        }
        if let Some(first) = by_name.insert(row.name.as_str(), row) {
            out.push(Diagnostic::error(
                TAG_DUP,
                &file.path,
                row.line,
                row.col,
                format!(
                    "family name `{}` appears twice (tags {} and {})",
                    row.name, first.tag, row.tag
                ),
                "family names key the registry and must be unique",
            ));
        }
    }

    // 2. Append-only: every blessed row must survive verbatim.
    for (tag, name) in &blessed {
        match rows.iter().find(|r| r.tag == *tag) {
            Some(row) if row.name == *name => {}
            Some(row) => {
                out.push(Diagnostic::error(
                    FROZEN,
                    &file.path,
                    row.line,
                    row.col,
                    format!(
                        "frozen family tag {tag} was renamed from `{name}` to `{}`",
                        row.name
                    ),
                    BLESS_HELP,
                ));
            }
            None => {
                let msg = match rows.iter().find(|r| r.name == *name) {
                    Some(row) => {
                        format!("frozen family `{name}` moved from tag {tag} to {}", row.tag)
                    }
                    None => format!(
                        "frozen family `{name}` (tag {tag}) was removed — the table is append-only"
                    ),
                };
                out.push(Diagnostic::error(
                    FROZEN,
                    registry_path,
                    1,
                    1,
                    msg,
                    BLESS_HELP,
                ));
            }
        }
    }

    // 3. Every live row must be blessed. Renames and retags were already
    // reported above; only flag genuinely new rows here.
    for row in &rows {
        let recorded = blessed.iter().any(|(t, n)| *t == row.tag && *n == row.name);
        let collides = blessed.iter().any(|(t, n)| *t == row.tag || *n == row.name);
        if !recorded && !collides {
            out.push(Diagnostic::error(
                FROZEN,
                &file.path,
                row.line,
                row.col,
                format!(
                    "family `{}` (tag {}) is not recorded in the family-tag registry",
                    row.name, row.tag
                ),
                BLESS_HELP,
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    const TABLE: &str = "pub const FAMILY_TAGS: &[(u16, &str)] = &[\n\
                         \x20   (1, \"factor\"),\n\
                         \x20   (2, \"search\"),\n\
                         ];\n";

    fn family_file(src: &str) -> SourceFile {
        SourceFile::parse(PathBuf::from("crates/accel/src/family.rs"), "accel", src)
    }

    fn run(src: &str, registry: &str) -> Vec<Diagnostic> {
        let file = family_file(src);
        let mut out = Vec::new();
        check(&file, registry, &PathBuf::from("reg"), &mut out);
        out
    }

    #[test]
    fn parses_rows_and_round_trips_through_bless() {
        let file = family_file(TABLE);
        let rows = family_rows(&file).expect("table must parse");
        assert_eq!(
            rows.iter()
                .map(|r| (r.tag, r.name.as_str()))
                .collect::<Vec<_>>(),
            vec![(1, "factor"), (2, "search")]
        );
        let blessed = bless(&file);
        assert!(blessed.contains("family 1 factor"));
        assert!(blessed.contains("family 2 search"));
        assert!(
            run(TABLE, &blessed).is_empty(),
            "{:?}",
            run(TABLE, &blessed)
        );
    }

    #[test]
    fn appending_a_row_is_flagged_until_blessed() {
        let blessed = bless(&family_file(TABLE));
        let appended = TABLE.replace("];", "    (3, \"coloring\"),\n];");
        let out = run(&appended, &blessed);
        assert!(
            out.iter().any(|d| d.rule == FROZEN
                && d.message.contains("coloring")
                && d.message.contains("not recorded")),
            "{out:#?}"
        );
        let reblessed = bless(&family_file(&appended));
        assert!(run(&appended, &reblessed).is_empty());
    }

    #[test]
    fn renames_retags_and_removals_are_errors() {
        let blessed = bless(&family_file(TABLE));

        let renamed = TABLE.replace("\"factor\"", "\"primes\"");
        assert!(run(&renamed, &blessed)
            .iter()
            .any(|d| d.rule == FROZEN && d.message.contains("renamed from `factor` to `primes`")));

        let retagged = TABLE.replace("(1, \"factor\")", "(9, \"factor\")");
        assert!(run(&retagged, &blessed)
            .iter()
            .any(|d| d.rule == FROZEN && d.message.contains("moved from tag 1 to 9")));

        let removed = TABLE.replace("    (1, \"factor\"),\n", "");
        assert!(run(&removed, &blessed)
            .iter()
            .any(|d| d.rule == FROZEN && d.message.contains("`factor` (tag 1) was removed")));
    }

    #[test]
    fn duplicate_tags_and_names_are_errors() {
        let blessed = bless(&family_file(TABLE));
        let dup_tag = TABLE.replace("(2, \"search\")", "(1, \"search\")");
        assert!(run(&dup_tag, &blessed)
            .iter()
            .any(|d| d.rule == TAG_DUP && d.message.contains("reuses tag 1")));

        let dup_name = TABLE.replace("(2, \"search\")", "(2, \"factor\")");
        assert!(run(&dup_name, &blessed)
            .iter()
            .any(|d| d.rule == TAG_DUP && d.message.contains("appears twice")));
    }

    #[test]
    fn missing_table_is_an_error() {
        let out = run("pub fn nothing_here() {}", "");
        assert!(out
            .iter()
            .any(|d| d.rule == FROZEN && d.message.contains("missing")));
    }
}

//! Panic-hygiene lints for hostile-input and serving surfaces: library
//! code that faces the network (`wire`, `server`, `accel::codec`, the
//! family body decoders) or routes jobs (`accel::host`) must return typed
//! errors, never abort the thread.
//!
//! * `panic::unwrap`, `panic::expect` — `.unwrap()` / `.expect(...)`;
//! * `panic::panic`, `panic::todo`, `panic::unimplemented` — the macros;
//! * `panic::index` — slice/array indexing `x[i]`, which panics out of
//!   bounds (use `.get(i)` and handle the `None`).
//!
//! `#[cfg(test)]` regions are exempt — tests *should* unwrap.

use crate::diag::Diagnostic;
use crate::lexer::TokKind;
use crate::source::SourceFile;

pub const UNWRAP: &str = "panic::unwrap";
pub const EXPECT: &str = "panic::expect";
pub const PANIC: &str = "panic::panic";
pub const TODO: &str = "panic::todo";
pub const UNIMPLEMENTED: &str = "panic::unimplemented";
pub const INDEX: &str = "panic::index";

/// Keywords that can directly precede a `[` starting an array literal or
/// slice pattern rather than an index expression.
const NON_INDEX_KEYWORDS: &[&str] = &[
    "return", "break", "continue", "in", "if", "else", "match", "loop", "while", "let", "mut",
    "ref", "move", "as", "where", "dyn", "use", "pub", "const", "static", "enum", "struct", "fn",
    "impl", "trait", "mod", "type", "unsafe", "async", "await", "yield", "box",
];

pub fn check(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    let toks = &file.toks;
    for i in 0..toks.len() {
        if file.is_test[i] {
            continue;
        }
        let t = &toks[i];
        match t.kind {
            TokKind::Ident => {
                let next_is = |s: &str| toks.get(i + 1).is_some_and(|n| n.text == s);
                let method_call = i > 0 && toks[i - 1].text == "." && next_is("(");
                match t.text.as_str() {
                    "unwrap" if method_call => {
                        out.push(Diagnostic::error(
                            UNWRAP,
                            &file.path,
                            t.line,
                            t.col,
                            "`unwrap()` in non-test library code of a serving surface",
                            "propagate a typed error (`?`), recover explicitly, or \
                             annotate `// lint:allow(panic::unwrap, reason = \"...\")`",
                        ));
                    }
                    "expect" if method_call => {
                        out.push(Diagnostic::error(
                            EXPECT,
                            &file.path,
                            t.line,
                            t.col,
                            "`expect()` in non-test library code of a serving surface",
                            "propagate a typed error (`?`), recover explicitly, or \
                             annotate `// lint:allow(panic::expect, reason = \"...\")`",
                        ));
                    }
                    "panic" if next_is("!") => {
                        out.push(Diagnostic::error(
                            PANIC,
                            &file.path,
                            t.line,
                            t.col,
                            "`panic!` in non-test library code of a serving surface",
                            "return a typed error; a panic here kills a worker or \
                             connection thread",
                        ));
                    }
                    "todo" if next_is("!") => {
                        out.push(Diagnostic::error(
                            TODO,
                            &file.path,
                            t.line,
                            t.col,
                            "`todo!` in non-test library code",
                            "implement the path or return a typed unsupported error",
                        ));
                    }
                    "unimplemented" if next_is("!") => {
                        out.push(Diagnostic::error(
                            UNIMPLEMENTED,
                            &file.path,
                            t.line,
                            t.col,
                            "`unimplemented!` in non-test library code",
                            "implement the path or return a typed unsupported error",
                        ));
                    }
                    _ => {}
                }
            }
            TokKind::Punct if t.text == "[" => {
                if let Some(d) = index_expression_at(file, i) {
                    out.push(d);
                }
            }
            _ => {}
        }
    }
}

/// Flags `expr[...]` indexing: a `[` directly preceded by an identifier,
/// `)`, or `]` in expression position. Array literals, slice patterns,
/// types and attributes all start their `[` after other token shapes.
fn index_expression_at(file: &SourceFile, i: usize) -> Option<Diagnostic> {
    let toks = &file.toks;
    let prev = toks.get(i.checked_sub(1)?)?;
    let indexes = match prev.kind {
        TokKind::Ident => !NON_INDEX_KEYWORDS.contains(&prev.text.as_str()),
        TokKind::Punct => matches!(prev.text.as_str(), ")" | "]" | "?"),
        _ => false,
    };
    // `[]` never indexes, and `#[...]` / `#![...]` are attributes.
    if !indexes || toks.get(i + 1).is_some_and(|n| n.text == "]") {
        return None;
    }
    Some(Diagnostic::error(
        INDEX,
        &file.path,
        toks[i].line,
        toks[i].col,
        format!("indexing `{}[...]` can panic out of bounds", prev.text),
        "use `.get(..)` and handle the miss, or annotate \
         `// lint:allow(panic::index, reason = \"...\")` for a proven bound",
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn run(src: &str) -> Vec<Diagnostic> {
        let f = SourceFile::parse(PathBuf::from("t.rs"), "t", src);
        let mut out = Vec::new();
        check(&f, &mut out);
        out
    }

    #[test]
    fn flags_unwrap_and_expect_but_not_variants() {
        let d = run("fn f(x: Option<u8>) -> u8 { x.unwrap() }");
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, UNWRAP);
        assert!(run("fn f(x: Option<u8>) -> u8 { x.unwrap_or(0) }").is_empty());
        assert!(run("fn f(x: Option<u8>) -> u8 { x.unwrap_or_else(|| 0) }").is_empty());
        assert_eq!(
            run("fn f(x: Option<u8>) { x.expect(\"boom\"); }")[0].rule,
            EXPECT
        );
    }

    #[test]
    fn flags_macros_but_not_paths() {
        assert_eq!(run("fn f() { panic!(\"boom\") }")[0].rule, PANIC);
        assert_eq!(run("fn f() { todo!() }")[0].rule, TODO);
        assert_eq!(run("fn f() { unimplemented!() }")[0].rule, UNIMPLEMENTED);
        assert!(run("fn f(p: Box<dyn Any>) { std::panic::resume_unwind(p) }").is_empty());
    }

    #[test]
    fn index_expressions_flagged_literals_and_types_not() {
        assert_eq!(run("fn f(v: &[u8]) -> u8 { v[0] }")[0].rule, INDEX);
        assert_eq!(run("fn f(v: &[u8]) -> &[u8] { &v[1..] }")[0].rule, INDEX);
        assert!(run("fn f() -> [u8; 2] { [1, 2] }").is_empty());
        assert!(run("fn f(x: [u8; 4]) { let [_a, _b, _c, _d] = x; }").is_empty());
        assert!(run("#[derive(Debug)] struct S;").is_empty());
        assert!(run("fn f() { let v = vec![1, 2]; drop(v); }").is_empty());
    }

    #[test]
    fn chained_index_after_call_flagged() {
        assert_eq!(run("fn f() -> u8 { g()[0] }")[0].rule, INDEX);
    }

    #[test]
    fn tests_are_exempt() {
        let src = "#[cfg(test)]\nmod tests { fn f() { x().unwrap(); v[0]; panic!(); } }";
        assert!(run(src).is_empty());
    }
}

//! Lock-order analysis for the concurrent crates (`runtime`, `server`).
//!
//! Per non-test function, every `*.lock()` acquisition is recorded
//! together with the set of guards still held at that point (guards are
//! tracked through `let` bindings, temporaries, re-assignments, block
//! scopes and explicit `drop(guard)` calls). Acquiring `B` while holding
//! `A` adds the edge `A → B` to a workspace-wide acquisition graph; a
//! cycle in that graph is a potential deadlock — the class of bug that
//! produced the PR-3 stats-after-publish race — and fails the lint.
//!
//! Locks are identified as `<file stem>::<field name>` (the identifier
//! immediately before `.lock()`), which distinguishes the several `inner`
//! mutexes in different modules while unifying `self.pending` with a
//! cloned local `pending`. The analysis is intraprocedural: it sees
//! direct acquisitions, not those hidden behind method calls.

use crate::diag::Diagnostic;
use crate::lexer::TokKind;
use crate::source::SourceFile;
use std::collections::{BTreeMap, BTreeSet};

pub const CYCLE: &str = "locks::cycle";

/// Where an edge was observed: `holding` was held when `acquired` was
/// locked, at `file:line` inside `func`.
#[derive(Debug, Clone)]
pub struct EdgeSite {
    pub file: String,
    pub line: u32,
    pub col: u32,
    pub func: String,
}

/// The workspace-wide acquisition graph. Nodes are mutexes
/// (`<file stem>::<field>`); a cycle is a potential deadlock.
#[derive(Debug, Default)]
pub struct LockGraph {
    /// `from → to → first site where the edge was seen`.
    pub edges: BTreeMap<String, BTreeMap<String, EdgeSite>>,
}

/// A mutex guard currently alive at some point of a function walk.
#[derive(Debug)]
struct Held {
    id: String,
    /// `Some(name)` when the guard is reachable through a binding that
    /// `drop(name)` can release.
    binding: Option<String>,
    /// Temporaries die at the end of their statement; bindings at the end
    /// of their block.
    temp: bool,
    depth: i32,
}

/// Scans one file's non-test functions, adding edges to `graph`.
pub fn collect(file: &SourceFile, graph: &mut LockGraph) {
    let stem = file
        .path
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_default();
    for item in &file.fns {
        if item.in_test {
            continue;
        }
        let Some((open, close)) = item.body else {
            continue;
        };
        scan_body(file, &stem, &item.name, open, close, graph);
    }
}

fn scan_body(
    file: &SourceFile,
    stem: &str,
    func: &str,
    open: usize,
    close: usize,
    graph: &mut LockGraph,
) {
    let toks = &file.toks;
    let mut depth = 0i32;
    let mut held: Vec<Held> = Vec::new();

    let mut k = open;
    while k <= close {
        let t = &toks[k];
        match t.text.as_str() {
            "{" => {
                // Temporaries in an `if`/`while`/`match` head die before
                // the block they guard runs.
                held.retain(|h| !(h.temp && h.depth == depth));
                depth += 1;
            }
            "}" => {
                held.retain(|h| h.depth != depth);
                depth -= 1;
            }
            ";" => {
                held.retain(|h| !(h.temp && h.depth == depth));
            }
            "drop"
                if t.kind == TokKind::Ident
                    && toks.get(k + 1).is_some_and(|n| n.text == "(")
                    && toks.get(k + 3).is_some_and(|n| n.text == ")") =>
            {
                if let Some(name) = toks.get(k + 2).filter(|n| n.kind == TokKind::Ident) {
                    held.retain(|h| h.binding.as_deref() != Some(name.text.as_str()));
                }
            }
            "lock" | "try_lock"
                if t.kind == TokKind::Ident
                    && k > 0
                    && toks[k - 1].text == "."
                    && toks.get(k + 1).is_some_and(|n| n.text == "(") =>
            {
                let Some(field) = toks
                    .get(k.wrapping_sub(2))
                    .filter(|p| p.kind == TokKind::Ident)
                else {
                    k += 1;
                    continue;
                };
                let id = format!("{stem}::{}", field.text);
                record_acquisition(file, func, k, &id, &held, graph);
                let (temp, binding) = statement_binding(toks, open, k);
                held.push(Held {
                    id,
                    binding,
                    temp,
                    depth,
                });
            }
            // Poison-tolerant wrapper: `lock_or_recover(&self.pending)`
            // acquires the mutex named by the last identifier of its
            // argument path.
            "lock_or_recover"
                if t.kind == TokKind::Ident
                    && toks.get(k + 1).is_some_and(|n| n.text == "(")
                    && !(k > 0 && toks[k - 1].text == "fn") =>
            {
                let Some(field) = call_arg_last_ident(toks, k + 1) else {
                    k += 1;
                    continue;
                };
                let id = format!("{stem}::{field}");
                record_acquisition(file, func, k, &id, &held, graph);
                let (temp, binding) = statement_binding(toks, open, k);
                held.push(Held {
                    id,
                    binding,
                    temp,
                    depth,
                });
            }
            _ => {}
        }
        k += 1;
    }
}

/// Records edges `held → id` (or a self-cycle edge when `id` is already
/// held) at the acquisition site `k`.
fn record_acquisition(
    file: &SourceFile,
    func: &str,
    k: usize,
    id: &str,
    held: &[Held],
    graph: &mut LockGraph,
) {
    let t = &file.toks[k];
    for h in held {
        // `h.id != id` is the normal ordering edge; equality is a
        // re-acquisition of a lock already held, recorded as a self-cycle.
        let from = h.id.clone();
        graph
            .edges
            .entry(from)
            .or_default()
            .entry(id.to_string())
            .or_insert_with(|| EdgeSite {
                file: file.path.display().to_string(),
                line: t.line,
                col: t.col,
                func: func.to_string(),
            });
    }
}

/// The last identifier inside the parenthesised argument list opening at
/// token `open_paren` — for `(&self.pending)` that is `pending`, the lock
/// field.
fn call_arg_last_ident(toks: &[crate::lexer::Tok], open_paren: usize) -> Option<String> {
    let mut depth = 0i32;
    let mut last = None;
    for t in toks.iter().skip(open_paren) {
        match t.text.as_str() {
            "(" => depth += 1,
            ")" => {
                depth -= 1;
                if depth == 0 {
                    return last;
                }
            }
            _ if t.kind == TokKind::Ident => last = Some(t.text.clone()),
            _ => {}
        }
    }
    None
}

/// Classifies the statement containing token `k`: does it bind its value
/// (`let g = ...;` or `g = ...;`, guard lives to end of block) or use it
/// as a temporary (guard dies at the `;`)?
fn statement_binding(
    toks: &[crate::lexer::Tok],
    body_open: usize,
    k: usize,
) -> (bool, Option<String>) {
    // Walk back to the start of the statement.
    let mut j = k;
    while j > body_open {
        match toks[j - 1].text.as_str() {
            ";" | "{" | "}" => break,
            _ => j -= 1,
        }
    }
    let first = &toks[j];
    if first.text == "let" {
        let mut n = j + 1;
        if toks.get(n).is_some_and(|t| t.text == "mut") {
            n += 1;
        }
        let name = toks
            .get(n)
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.clone());
        return (false, name);
    }
    // Re-assignment to an existing binding keeps the guard alive.
    if first.kind == TokKind::Ident
        && toks.get(j + 1).is_some_and(|t| t.text == "=")
        && toks.get(j + 2).is_none_or(|t| t.text != "=")
    {
        return (false, Some(first.text.clone()));
    }
    (true, None)
}

/// Reports every distinct cycle in the acquisition graph.
pub fn check_cycles(graph: &LockGraph, out: &mut Vec<Diagnostic>) {
    let mut reported: BTreeSet<Vec<String>> = BTreeSet::new();
    for start in graph.edges.keys() {
        let mut path: Vec<String> = Vec::new();
        let mut on_path: BTreeSet<String> = BTreeSet::new();
        dfs(graph, start, &mut path, &mut on_path, &mut reported, out);
    }
}

fn dfs(
    graph: &LockGraph,
    node: &str,
    path: &mut Vec<String>,
    on_path: &mut BTreeSet<String>,
    reported: &mut BTreeSet<Vec<String>>,
    out: &mut Vec<Diagnostic>,
) {
    if on_path.contains(node) {
        let pos = path.iter().position(|n| n == node).unwrap_or(0);
        report_cycle(graph, &path[pos..], reported, out);
        return;
    }
    if path.len() > graph.edges.len() + 1 {
        return;
    }
    path.push(node.to_string());
    on_path.insert(node.to_string());
    if let Some(nexts) = graph.edges.get(node) {
        for next in nexts.keys() {
            dfs(graph, next, path, on_path, reported, out);
        }
    }
    path.pop();
    on_path.remove(node);
}

fn report_cycle(
    graph: &LockGraph,
    cycle: &[String],
    reported: &mut BTreeSet<Vec<String>>,
    out: &mut Vec<Diagnostic>,
) {
    if cycle.is_empty() {
        return;
    }
    // Canonicalise: rotate so the smallest node comes first.
    let min = cycle
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.cmp(b.1))
        .map_or(0, |(i, _)| i);
    let canon: Vec<String> = cycle[min..]
        .iter()
        .chain(cycle[..min].iter())
        .cloned()
        .collect();
    if !reported.insert(canon.clone()) {
        return;
    }
    let mut legs = Vec::new();
    let mut anchor: Option<EdgeSite> = None;
    for i in 0..canon.len() {
        let from = &canon[i];
        let to = &canon[(i + 1) % canon.len()];
        if let Some(site) = graph.edges.get(from).and_then(|m| m.get(to)) {
            legs.push(format!(
                "`{to}` acquired while holding `{from}` at {}:{} (fn {})",
                site.file, site.line, site.func
            ));
            if anchor.is_none() {
                anchor = Some(site.clone());
            }
        }
    }
    let Some(site) = anchor else { return };
    let chain = canon
        .iter()
        .chain(std::iter::once(&canon[0]))
        .cloned()
        .collect::<Vec<_>>()
        .join(" -> ");
    out.push(Diagnostic {
        severity: crate::diag::Severity::Error,
        rule: CYCLE,
        file: site.file.clone(),
        line: site.line,
        col: site.col,
        message: format!("lock-order cycle: {chain}; {}", legs.join("; ")),
        help: "acquire these locks in one global order (or drop the first guard \
               before taking the second)"
            .to_string(),
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn graph_of(src: &str) -> LockGraph {
        let f = SourceFile::parse(PathBuf::from("m.rs"), "t", src);
        let mut g = LockGraph::default();
        collect(&f, &mut g);
        g
    }

    fn cycles_of(src: &str) -> Vec<Diagnostic> {
        let g = graph_of(src);
        let mut out = Vec::new();
        check_cycles(&g, &mut out);
        out
    }

    #[test]
    fn two_mutex_inversion_is_a_cycle() {
        let src = "
            fn a(&self) {
                let g1 = self.first.lock().unwrap();
                let g2 = self.second.lock().unwrap();
                use_both(g1, g2);
            }
            fn b(&self) {
                let g2 = self.second.lock().unwrap();
                let g1 = self.first.lock().unwrap();
                use_both(g1, g2);
            }";
        let out = cycles_of(src);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("m::first"));
        assert!(out[0].message.contains("m::second"));
    }

    #[test]
    fn consistent_order_is_clean() {
        let src = "
            fn a(&self) { let g1 = self.first.lock().unwrap(); let g2 = self.second.lock().unwrap(); go(g1, g2); }
            fn b(&self) { let g1 = self.first.lock().unwrap(); let g2 = self.second.lock().unwrap(); go(g1, g2); }";
        assert!(cycles_of(src).is_empty());
    }

    #[test]
    fn temporary_guard_dies_at_statement_end() {
        let src = "
            fn a(&self) {
                self.first.lock().unwrap().insert(1);
                let g = self.second.lock().unwrap();
                go(g);
            }
            fn b(&self) {
                self.second.lock().unwrap().insert(1);
                let g = self.first.lock().unwrap();
                go(g);
            }";
        assert!(cycles_of(src).is_empty());
    }

    #[test]
    fn condition_temporaries_die_before_the_block() {
        let src = "
            fn a(&self) {
                if self.pending.lock().unwrap().contains_key(&k) {
                    let g = self.pending.lock().unwrap();
                    go(g);
                }
            }";
        assert!(cycles_of(src).is_empty());
    }

    #[test]
    fn drop_releases_a_binding() {
        let src = "
            fn a(&self) {
                let g1 = self.first.lock().unwrap();
                drop(g1);
                let g2 = self.second.lock().unwrap();
                go(g2);
            }
            fn b(&self) {
                let g2 = self.second.lock().unwrap();
                let g1 = self.first.lock().unwrap();
                go(g1, g2);
            }";
        assert!(cycles_of(src).is_empty());
    }

    #[test]
    fn self_reacquisition_is_reported() {
        let src = "
            fn a(&self) {
                let g = self.inner.lock().unwrap();
                let h = self.inner.lock().unwrap();
                go(g, h);
            }";
        let out = cycles_of(src);
        assert_eq!(out.len(), 1);
        assert!(out[0].message.contains("m::inner"));
    }

    #[test]
    fn lock_or_recover_counts_as_an_acquisition() {
        let src = "
            fn a(&self) {
                let g1 = lock_or_recover(&self.first);
                let g2 = lock_or_recover(&self.second);
                use_both(g1, g2);
            }
            fn b(&self) {
                let g2 = lock_or_recover(&self.second);
                let g1 = self.first.lock().unwrap();
                use_both(g1, g2);
            }";
        let out = cycles_of(src);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("m::first"));
        assert!(out[0].message.contains("m::second"));
    }

    #[test]
    fn lock_or_recover_definition_is_not_an_acquisition() {
        let src = "
            fn lock_or_recover(m: &Mutex<u8>) -> MutexGuard<'_, u8> {
                m.lock().unwrap_or_else(PoisonError::into_inner)
            }";
        assert!(graph_of(src).edges.is_empty());
    }

    #[test]
    fn edges_do_not_cross_functions_spuriously() {
        let src = "
            fn a(&self) { let g = self.first.lock().unwrap(); go(g); }
            fn b(&self) { let g = self.second.lock().unwrap(); go(g); }";
        assert!(graph_of(src).edges.is_empty());
    }
}

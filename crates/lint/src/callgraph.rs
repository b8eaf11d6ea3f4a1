//! A workspace-wide syntactic call graph over the serving crates.
//!
//! The graph is built from token shapes alone — no type information —
//! so resolution is by *name*, hedged three ways to keep false paths
//! out of the loop-reachability analysis:
//!
//! * **Method calls stay in their crate.** `x.submit(...)` resolves to
//!   functions named `submit` in the caller's own crate only; cross-crate
//!   edges come from free/path calls (`lock_or_recover(...)`,
//!   `Link::connect(...)`), which name their target unambiguously
//!   enough in this workspace.
//! * **Ubiquitous names are never resolved.** `new`, `clone`, `insert`,
//!   `get` and friends (see [`STOPLIST`]) are overwhelmingly std methods;
//!   an edge guessed from one of them would be noise. This trades a
//!   false *negative* (a trivially named workspace fn is not traversed)
//!   for zero false positives on hot std idioms.
//! * **Deferred closures are not part of the caller.** Arguments to
//!   `spawn` / `execute` / `on_finish` (see [`DEFER_SINKS`]) run on
//!   another thread later, so nothing inside them is attributed to the
//!   calling function's own execution path. [`deferred_ranges`] exposes
//!   the skipped spans so rules scanning bodies for operations apply the
//!   same convention.

use crate::lexer::TokKind;
use crate::source::SourceFile;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Method/function names too generic to resolve by name: almost always
/// std-library calls, and an edge guessed from one would poison the
/// reachability analysis with false paths.
pub const STOPLIST: &[&str] = &[
    "new",
    "default",
    "clone",
    "fmt",
    "from",
    "into",
    "drop",
    "len",
    "is_empty",
    "push",
    "pop",
    "insert",
    "remove",
    "get",
    "get_mut",
    "contains",
    "contains_key",
    "iter",
    "iter_mut",
    "into_iter",
    "next",
    "take",
    "clear",
    "extend",
    "retain",
    "min",
    "max",
    "clamp",
    "map",
    "and_then",
    "ok",
    "err",
    "unwrap_or",
    "unwrap_or_else",
    "unwrap_or_default",
    "is_some",
    "is_none",
    "is_ok",
    "is_err",
    "as_ref",
    "as_mut",
    "as_str",
    "as_slice",
    "to_string",
    "to_vec",
    "to_owned",
    "sort",
    "sort_by",
    "sort_unstable",
    "position",
    "find",
    "any",
    "all",
    "filter",
    "count",
    "sum",
    "collect",
    "keys",
    "values",
    "shutdown",
    "write",
    "read",
    "peek",
    "send",
    "recv",
    "lock",
    "try_lock",
    "join",
    "wait",
];

/// Calls whose arguments execute on another thread, later: a closure
/// handed to one of these is *not* part of the caller's own path.
pub const DEFER_SINKS: &[&str] = &["spawn", "execute", "on_finish"];

/// Keywords that can syntactically precede `(` without being calls.
const KEYWORDS: &[&str] = &[
    "if", "while", "match", "for", "loop", "return", "fn", "move", "in", "as", "let", "else",
    "break", "continue", "unsafe", "impl", "where", "pub", "crate", "super", "self", "Self",
];

/// One function node: indices back into the file slice the graph was
/// built from, plus enough identity for diagnostics.
#[derive(Debug)]
pub struct FnNode {
    /// Index into the `files` slice handed to [`CallGraph::build`].
    pub file: usize,
    /// Index into that file's `fns`.
    pub item: usize,
    pub name: String,
    pub crate_name: String,
}

/// The call graph: nodes plus name-resolved adjacency.
#[derive(Debug)]
pub struct CallGraph {
    pub nodes: Vec<FnNode>,
    /// `edges[n]` = callee node indices of node `n`.
    pub edges: Vec<BTreeSet<usize>>,
}

impl CallGraph {
    /// Builds the graph over every non-test function with a body.
    /// `lock_or_recover` is excluded — the rules model it as a blocking
    /// primitive at the call site, not a function to traverse into.
    #[must_use]
    pub fn build(files: &[&SourceFile]) -> CallGraph {
        let mut nodes = Vec::new();
        let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (fi, file) in files.iter().enumerate() {
            for (ii, item) in file.fns.iter().enumerate() {
                if item.in_test || item.body.is_none() || item.name == "lock_or_recover" {
                    continue;
                }
                by_name
                    .entry(item.name.as_str())
                    .or_default()
                    .push(nodes.len());
                nodes.push(FnNode {
                    file: fi,
                    item: ii,
                    name: item.name.clone(),
                    crate_name: file.crate_name.clone(),
                });
            }
        }

        let mut edges = vec![BTreeSet::new(); nodes.len()];
        for n in 0..nodes.len() {
            let file = files[nodes[n].file];
            let (open, close) = file.fns[nodes[n].item].body.unwrap_or((0, 0));
            let skipped = deferred_ranges(file, open, close);
            let toks = &file.toks;
            let mut k = open;
            while k <= close {
                if let Some(&(_, end)) = skipped.iter().find(|&&(s, e)| k >= s && k <= e) {
                    k = end + 1;
                    continue;
                }
                let t = &toks[k];
                let is_call = t.kind == TokKind::Ident
                    && toks.get(k + 1).is_some_and(|x| x.text == "(")
                    && !KEYWORDS.contains(&t.text.as_str())
                    && !STOPLIST.contains(&t.text.as_str())
                    && !(k > 0 && toks[k - 1].text == "fn");
                if is_call {
                    let method = k > 0 && toks[k - 1].text == ".";
                    if let Some(cands) = by_name.get(t.text.as_str()) {
                        for &c in cands {
                            if method && nodes[c].crate_name != nodes[n].crate_name {
                                continue;
                            }
                            edges[n].insert(c);
                        }
                    }
                }
                k += 1;
            }
        }
        CallGraph { nodes, edges }
    }

    /// BFS from `roots`. Returns `node → parent` for every reachable
    /// node; a root is its own parent.
    #[must_use]
    pub fn reachable(&self, roots: &[usize]) -> BTreeMap<usize, usize> {
        let mut parent: BTreeMap<usize, usize> = BTreeMap::new();
        let mut queue: VecDeque<usize> = VecDeque::new();
        for &r in roots {
            if parent.insert(r, r).is_none() {
                queue.push_back(r);
            }
        }
        while let Some(n) = queue.pop_front() {
            for &m in &self.edges[n] {
                if let std::collections::btree_map::Entry::Vacant(e) = parent.entry(m) {
                    e.insert(n);
                    queue.push_back(m);
                }
            }
        }
        parent
    }

    /// The call chain `root → … → node`, as fn names, from a
    /// [`CallGraph::reachable`] parent map.
    #[must_use]
    pub fn path_to(&self, parent: &BTreeMap<usize, usize>, node: usize) -> Vec<String> {
        let mut chain = vec![self.nodes[node].name.clone()];
        let mut cur = node;
        while let Some(&p) = parent.get(&cur) {
            if p == cur {
                break;
            }
            chain.push(self.nodes[p].name.clone());
            cur = p;
        }
        chain.reverse();
        chain
    }
}

/// Token spans inside `open..=close` that are argument lists of
/// deferred-execution sinks (`spawn(...)`, `execute(...)`,
/// `on_finish(...)`): code in them runs off the caller's thread.
#[must_use]
pub fn deferred_ranges(file: &SourceFile, open: usize, close: usize) -> Vec<(usize, usize)> {
    let toks = &file.toks;
    let mut out = Vec::new();
    let mut k = open;
    while k <= close {
        let t = &toks[k];
        if t.kind == TokKind::Ident
            && DEFER_SINKS.contains(&t.text.as_str())
            && toks.get(k + 1).is_some_and(|x| x.text == "(")
            && !(k > 0 && toks[k - 1].text == "fn")
        {
            let mut depth = 0i32;
            let mut j = k + 1;
            while j <= close {
                match toks[j].text.as_str() {
                    "(" => depth += 1,
                    ")" => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
            out.push((k + 1, j.min(close)));
            k = j + 1;
            continue;
        }
        k += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn parse(crate_name: &str, src: &str) -> SourceFile {
        SourceFile::parse(PathBuf::from(format!("{crate_name}.rs")), crate_name, src)
    }

    fn names_reachable(files: &[&SourceFile], root_name: &str) -> BTreeSet<String> {
        let g = CallGraph::build(files);
        let roots: Vec<usize> = g
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.name == root_name)
            .map(|(i, _)| i)
            .collect();
        g.reachable(&roots)
            .keys()
            .map(|&n| g.nodes[n].name.clone())
            .collect()
    }

    #[test]
    fn free_calls_resolve_across_crates() {
        let a = parse("a", "fn root() { helper(); }");
        let b = parse("b", "fn helper() { leaf(); } fn leaf() {}");
        let reach = names_reachable(&[&a, &b], "root");
        assert!(
            reach.contains("helper") && reach.contains("leaf"),
            "{reach:?}"
        );
    }

    #[test]
    fn method_calls_stay_in_their_crate() {
        let a = parse("a", "fn root(&self) { self.work(); }");
        let b = parse("b", "fn work(&self) { bad(); } fn bad() {}");
        let reach = names_reachable(&[&a, &b], "root");
        assert!(!reach.contains("work"), "{reach:?}");
        // The same method name in the caller's own crate does resolve.
        let same_crate = parse("a", "fn work(&self) {}");
        let reach = names_reachable(&[&a, &same_crate], "root");
        assert!(reach.contains("work"), "{reach:?}");
    }

    #[test]
    fn stoplisted_names_produce_no_edges() {
        let a = parse("a", "fn root(&self) { self.insert(1); insert(2); }");
        let b = parse("a", "fn insert(&self) { bad(); } fn bad() {}");
        let reach = names_reachable(&[&a, &b], "root");
        assert!(
            !reach.contains("insert") && !reach.contains("bad"),
            "{reach:?}"
        );
    }

    #[test]
    fn deferred_closures_are_not_the_callers_path() {
        let a = parse(
            "a",
            "fn root(&self) { self.pool.execute(move || { off_loop(); }); on_loop(); }\n\
             fn off_loop() {}\n\
             fn on_loop() {}",
        );
        let reach = names_reachable(&[&a], "root");
        assert!(reach.contains("on_loop"), "{reach:?}");
        assert!(!reach.contains("off_loop"), "{reach:?}");
    }

    #[test]
    fn test_functions_are_not_nodes() {
        let a = parse(
            "a",
            "fn root() { helper(); }\nfn helper() {}\n#[cfg(test)]\nmod tests { fn root() { gone(); } fn gone() {} }",
        );
        let g = CallGraph::build(&[&a]);
        assert_eq!(g.nodes.len(), 2, "{:?}", g.nodes);
    }

    #[test]
    fn path_reconstruction_walks_parents() {
        let a = parse(
            "a",
            "fn root() { mid(); } fn mid() { leaf(); } fn leaf() {}",
        );
        let g = CallGraph::build(&[&a]);
        let root = g.nodes.iter().position(|n| n.name == "root").unwrap();
        let leaf = g.nodes.iter().position(|n| n.name == "leaf").unwrap();
        let parent = g.reachable(&[root]);
        assert_eq!(g.path_to(&parent, leaf), vec!["root", "mid", "leaf"]);
    }
}

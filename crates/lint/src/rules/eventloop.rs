//! No blocking operation on the event-loop dispatch path.
//!
//! The cluster/server tier serves every connection from one readiness
//! loop (`Server::event_loop`, fed by `cluster::poll`): a single blocked
//! thread stalls the whole shard. This rule builds the workspace call
//! graph over the loop crates ([`crate::callgraph::CallGraph`]), takes
//! every `fn event_loop` and every function in a `poll.rs` file as a
//! root, and walks the reachable set looking for operations that can
//! block the thread:
//!
//! * `Mutex::lock` / `lock_or_recover` (lock acquisition can wait on a
//!   contended guard),
//! * `thread::sleep`,
//! * `Condvar`/`JobHandle` waits (`.wait`, `.wait_timeout`, `.wait_while`),
//! * blocking channel ops (`.recv`, `.recv_timeout`, and `.send` on a
//!   *bounded* endpoint — classified per file, by name, in
//!   `bounded_senders`),
//! * thread joins (`.join()`),
//! * blocking stream I/O (`.read_exact`, `.read_to_end`,
//!   `TcpStream::connect`, `set_nonblocking(false)`).
//!
//! Closures handed to deferred-execution sinks (`spawn` / `execute` /
//! `on_finish`) run off-loop and are skipped, matching the call graph's
//! own convention. Legitimate on-loop blocking — short lock holds on
//! loop-local state — carries an audited
//! `// lint:allow(eventloop, reason = "...")`. The loop's one designed
//! wait, the `poll(2)` call in `poll.rs`, is none of the operations
//! above: every readiness source, the cross-thread waker included, ends
//! it.

use crate::callgraph::{deferred_ranges, CallGraph};
use crate::diag::Diagnostic;
use crate::lexer::{Tok, TokKind};
use crate::source::SourceFile;
use std::collections::BTreeSet;

pub const BLOCKING: &str = "eventloop::blocking";

/// Files whose functions are event-loop roots, by stem.
const ROOT_FILE_STEMS: &[&str] = &["poll"];

/// Functions that are event-loop roots wherever they live.
const ROOT_FNS: &[&str] = &["event_loop"];

/// Runs the rule over `files` (pre-filtered to the event-loop crates;
/// the synchronous client tier is excluded by the caller — blocking is
/// its design).
pub fn check(files: &[&SourceFile], out: &mut Vec<Diagnostic>) {
    let graph = CallGraph::build(files);
    let roots: Vec<usize> = graph
        .nodes
        .iter()
        .enumerate()
        .filter(|(_, n)| {
            ROOT_FNS.contains(&n.name.as_str())
                || files[n.file]
                    .path
                    .file_stem()
                    .is_some_and(|s| ROOT_FILE_STEMS.contains(&s.to_string_lossy().as_ref()))
        })
        .map(|(i, _)| i)
        .collect();
    if roots.is_empty() {
        return;
    }

    let parent = graph.reachable(&roots);
    for &n in parent.keys() {
        let node = &graph.nodes[n];
        let file = files[node.file];
        let item = &file.fns[node.item];
        let Some((open, close)) = item.body else {
            continue;
        };
        let chain = graph.path_to(&parent, n).join(" -> ");
        scan_ops(file, open, close, &chain, out);
    }
}

/// Scans one reachable function body for blocking operations, skipping
/// deferred-closure spans.
fn scan_ops(file: &SourceFile, open: usize, close: usize, chain: &str, out: &mut Vec<Diagnostic>) {
    let bounded = bounded_senders(file);
    let skipped = deferred_ranges(file, open, close);
    let toks = &file.toks;
    let mut k = open;
    while k <= close {
        if let Some(&(_, end)) = skipped.iter().find(|&&(s, e)| k >= s && k <= e) {
            k = end + 1;
            continue;
        }
        if let Some(desc) = blocking_op(file, &bounded, k) {
            let t = &toks[k];
            out.push(Diagnostic::error(
                BLOCKING,
                &file.path,
                t.line,
                t.col,
                format!("{desc} on the event-loop path ({chain})"),
                "move the blocking work off-loop (pool.execute / completion watcher) \
                 or annotate `// lint:allow(eventloop, reason = \"...\")`",
            ));
        }
        k += 1;
    }
}

/// Classifies the token at `k` as a blocking operation, if it is one.
fn blocking_op(file: &SourceFile, bounded: &BTreeSet<String>, k: usize) -> Option<&'static str> {
    let toks = &file.toks;
    let t = &toks[k];
    if t.kind != TokKind::Ident {
        return None;
    }
    let next_is = |off: usize, s: &str| toks.get(k + off).is_some_and(|x| x.text == s);
    let prev = |off: usize| k.checked_sub(off).map(|j| toks[j].text.as_str());
    let called = next_is(1, "(");
    let method = called && prev(1) == Some(".");

    match t.text.as_str() {
        "sleep" if called && prev(1) == Some("::") && prev(2) == Some("thread") => {
            Some("blocking call `thread::sleep`")
        }
        "lock" if method => Some("lock acquisition `Mutex::lock`"),
        "lock_or_recover" if called && prev(1) != Some("fn") => {
            Some("lock acquisition `lock_or_recover`")
        }
        "wait" | "wait_timeout" | "wait_while" if method => {
            Some("blocking wait (`Condvar`/`JobHandle`)")
        }
        "recv" | "recv_timeout" if method => Some("blocking channel recv"),
        "send" if method => {
            let receiver = prev(2)?;
            bounded
                .contains(receiver)
                .then_some("bounded channel send (parks when full)")
        }
        // Bare `.join()` only: `path.join(seg)` / `parts.join(",")` take
        // arguments, a thread join never does.
        "join" if method && next_is(2, ")") => Some("blocking `JoinHandle::join`"),
        "read_exact" | "read_to_end" if method => Some("blocking stream read"),
        "set_nonblocking" if called && next_is(2, "false") => {
            Some("switch to blocking I/O (`set_nonblocking(false)`)")
        }
        "connect" | "connect_timeout"
            if called && prev(1) == Some("::") && prev(2) == Some("TcpStream") =>
        {
            Some("blocking `TcpStream::connect`")
        }
        _ => None,
    }
}

/// The identifiers in `file` whose `send` can park the caller: the send
/// end of a `let (tx, rx) = mpsc::sync_channel(..)` tuple binding, and
/// any field, param or let annotated `SyncSender<…>`. An unbounded
/// `mpsc::channel` sender never blocks and is left out.
fn bounded_senders(file: &SourceFile) -> BTreeSet<String> {
    let toks = &file.toks;
    toks.iter()
        .enumerate()
        .filter(|(_, t)| t.kind == TokKind::Ident)
        .filter_map(|(k, t)| match t.text.as_str() {
            "sync_channel" => tuple_binding_first(toks, k),
            "SyncSender" => annotated_binding(toks, k),
            _ => None,
        })
        .collect()
}

/// Matches `let ( a , b ) =` looking back from a channel constructor and
/// returns `a`.
fn tuple_binding_first(toks: &[Tok], k: usize) -> Option<String> {
    let mut j = k;
    while j > 0 {
        match toks[j - 1].text.as_str() {
            ";" | "{" | "}" => break,
            _ => j -= 1,
        }
    }
    if toks.get(j)?.text != "let" || toks.get(j + 1)?.text != "(" {
        return None;
    }
    let a = toks.get(j + 2).filter(|t| t.kind == TokKind::Ident)?;
    if toks.get(j + 3)?.text != "," {
        return None;
    }
    toks.get(j + 4).filter(|t| t.kind == TokKind::Ident)?;
    if toks.get(j + 5)?.text != ")" {
        return None;
    }
    Some(a.text.clone())
}

/// For a type name at `k`, the identifier it annotates: walks back over
/// type-ish tokens to the nearest `:` and takes the ident before it
/// (same shape as the determinism rule's hash-container detection).
fn annotated_binding(toks: &[Tok], k: usize) -> Option<String> {
    let mut j = k;
    let mut budget = 12;
    while j > 0 && budget > 0 {
        j -= 1;
        budget -= 1;
        let text = toks[j].text.as_str();
        match toks[j].kind {
            TokKind::Punct if text == ":" => {
                return toks
                    .get(j.checked_sub(1)?)
                    .filter(|t| t.kind == TokKind::Ident)
                    .map(|t| t.text.clone());
            }
            TokKind::Punct if matches!(text, "<" | ">" | "&" | "::" | ",") => {}
            TokKind::Ident | TokKind::Lifetime | TokKind::Num => {}
            _ => break,
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn run(files: &[(&str, &str)]) -> Vec<Diagnostic> {
        let parsed: Vec<SourceFile> = files
            .iter()
            .map(|(name, src)| SourceFile::parse(PathBuf::from(*name), "cluster", src))
            .collect();
        let refs: Vec<&SourceFile> = parsed.iter().collect();
        let mut out = Vec::new();
        check(&refs, &mut out);
        out
    }

    #[test]
    fn sleep_in_event_loop_is_flagged() {
        let out = run(&[(
            "server.rs",
            "fn event_loop(&self) { std::thread::sleep(ms); }",
        )]);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].rule, BLOCKING);
        assert!(out[0].message.contains("thread::sleep"), "{out:?}");
        assert!(out[0].message.contains("event_loop"), "{out:?}");
    }

    #[test]
    fn blocking_reached_through_a_callee_names_the_path() {
        let out = run(&[(
            "server.rs",
            "fn event_loop(&self) { self.drain_work(); }\n\
             fn drain_work(&self) { let g = lock_or_recover(&self.inbox); go(g); }",
        )]);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(
            out[0].message.contains("event_loop -> drain_work"),
            "{out:?}"
        );
    }

    #[test]
    fn functions_off_the_loop_path_may_block() {
        let out = run(&[(
            "server.rs",
            "fn event_loop(&self) { tick(); }\n\
             fn tick() {}\n\
             fn background(&self) { std::thread::sleep(ms); }",
        )]);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn deferred_closures_may_block() {
        let out = run(&[(
            "server.rs",
            "fn event_loop(&self) { pool.execute(move || { std::thread::sleep(ms); }); }",
        )]);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn poll_file_fns_are_roots() {
        let out = run(&[("poll.rs", "fn scan(&mut self) { handle.wait(); }")]);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("blocking wait"), "{out:?}");
    }

    #[test]
    fn path_join_is_not_a_thread_join() {
        let out = run(&[(
            "server.rs",
            "fn event_loop(&self) { let p = dir.join(name); let h = self.done; h.join(); go(p); }",
        )]);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("JoinHandle"), "{out:?}");
    }

    #[test]
    fn bounded_send_blocks_unbounded_does_not() {
        let out = run(&[(
            "server.rs",
            "fn event_loop(&self) { let (btx, brx) = mpsc::sync_channel(4); \
             let (utx, urx) = mpsc::channel(); \
             btx.send(1); utx.send(2); park(brx, urx); }",
        )]);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("bounded channel send"), "{out:?}");
    }
}

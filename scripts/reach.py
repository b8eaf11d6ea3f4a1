#!/usr/bin/env python3
"""Lists the substrate crates' `pub` items that no root reaches.

Roots: non-test code of accel, runtime, server, cluster, wire, admission,
the E-benches, the examples and benchmark/src. An item is reached when
reached text in its crate, or in a file naming `its_crate::`, names it (a
method also needs its type reached); its lines up to the next `pub` item
(a file's first item: from the top) then join the reached text. Names
match by word, so the output is a list of candidates, not proofs.
Usage, from the repo root: python3 scripts/reach.py [crate ...]
(default: every substrate)."""
import glob, re, sys
CRATES = ["quantum", "osc", "numerics", "device", "vision", "mem"]
ROOTS = [f"crates/{c}/src/**/*.rs" for c in "accel runtime server cluster wire admission".split()]
ROOTS += ["crates/bench/benches/*.rs", "examples/*.rs", "benchmark/src/**/*.rs"]
DECL = re.compile(r"^(\s*)pub (?:const )?(?:fn|struct|enum|trait|const|type|static) (\w+)")
IMPL = re.compile(r"^impl(?:<.*?>)? (?:[\w:<>]+ for )?(\w+)")

def code(path):  # non-test, non-comment lines
    text = re.split(r"#\[cfg\(test\)\]\n(?:pub\(crate\) )?mod ", open(path).read())[0]
    return ["" if l.lstrip().startswith("//") else l for l in text.splitlines()]

def scope(path, text):  # crates `text` can name
    return {c for c in CRATES if c == path.split("/")[1] or re.search(rf"\b{c}::", text)}

reached = [(scope(p, t), t) for p in (p for g in ROOTS for p in glob.glob(g, recursive=True))
           for t in ["\n".join(code(p))]]
items = []  # (crate, name, owner type or None, file, line, chunk, chunk scope)
for crate in CRATES:
    for path in sorted(glob.glob(f"crates/{crate}/src/**/*.rs", recursive=True)):
        lines, owner, decls = code(path), None, []
        for i, line in enumerate(lines):
            owner = m.group(1) if (m := IMPL.match(line)) else (None if line.startswith("}") else owner)
            if m := DECL.match(line):
                decls.append((i, m.group(2), owner if m.group(1) else None))
        names = scope(path, "\n".join(lines))
        for k, (i, name, own) in enumerate(decls):
            end = decls[k + 1][0] if k + 1 < len(decls) else len(lines)
            start = i if k else 0  # a file's first item carries its head
            items.append((crate, name, own, path, i + 1, "\n".join(lines[start:end]), names))

done = set()  # (crate, name, owner) of every reached item
while hit := [it for it in items if it[:3] not in done
              and (it[2] is None or (it[0], it[2], None) in done)
              and any(it[0] in s and re.search(rf"\b{it[1]}\b", t) for s, t in reached)]:
    done |= {it[:3] for it in hit}
    reached += [(it[6], it[5]) for it in hit]
for crate, name, own, path, line, _, _ in items:
    if (crate, name, own) not in done and crate in (sys.argv[1:] or CRATES):
        print(f"{path}:{line}: {own + '::' if own else ''}{name}")

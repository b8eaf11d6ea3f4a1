#!/usr/bin/env bash
# Non-test Rust lines per crate: every non-blank line of `crates/<name>/src`,
# comments included, except each `#[cfg(test)]` item (a test module, a
# test-only function or impl) from its attribute through its closing brace.
# A crate's `tests/` directory is test code and is not counted.
#
#   bash scripts/loc.sh            every crate, then the total
#   bash scripts/loc.sh mem osc    the named crates, then their total
#
# Braces are counted as characters, so a `{` or `}` inside a string or char
# literal of a test item would misplace its end; no test item has one.
set -euo pipefail

cd "$(dirname "$0")/.."

if [ "$#" -eq 0 ]; then
  set -- $(ls crates)
fi

total=0
for crate in "$@"; do
  dir="crates/$crate/src"
  if [ ! -d "$dir" ]; then
    echo "loc: no crate '$crate'" >&2
    exit 1
  fi
  lines=$(find "$dir" -name '*.rs' -print0 | sort -z | xargs -0 awk '
    FNR == 1 { skipping = 0 }
    skipping {
      # Inside a #[cfg(test)] item: further attributes, then the item,
      # which ends at the brace that closes its first `{`, or at a `;`
      # before any `{` (a `use` or `mod name;`).
      for (i = 1; i <= length($0); i++) {
        c = substr($0, i, 1)
        if (c == "{") { depth++; opened = 1 }
        else if (c == "}") depth--
      }
      if ((opened && depth == 0) || (!opened && $0 ~ /;[[:space:]]*$/ && $0 !~ /^[[:space:]]*#/)) skipping = 0
      next
    }
    /^[[:space:]]*#\[cfg\(test\)\][[:space:]]*$/ { skipping = 1; depth = 0; opened = 0; next }
    NF { n++ }
    END { print n + 0 }
  ')
  printf '%-10s %6d\n' "$crate" "$lines"
  total=$((total + lines))
done
printf '%-10s %6d\n' total "$total"

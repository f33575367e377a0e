#!/usr/bin/env bash
# The repo's line measure: non-test, non-comment, non-blank lines of Rust
# per crate and in total, over `crates/*/src` and the facade's `src`.
#
#   scripts/loc.sh
#
# A file counts up to its first `#[cfg(test)]` at the start of a line (the
# unit-test module closes every file that has one); `//` lines, doc
# comments included, and blank lines do not count. Integration tests
# (`tests/`), `benchmark/` and scripts are outside the measure. This is
# the number CHANGES.md quotes for simplicity PRs (PR 12 onward) -- a
# report, not a gate: CI appends it to the job summary.

set -euo pipefail
cd "$(dirname "$0")/.."

count() { # one awk per file: `exit` ends that file's count
    find "$1" -name '*.rs' -exec \
        awk '/^#\[cfg\(test\)\]/{exit} !/^[[:space:]]*\/\// && !/^[[:space:]]*$/' {} \; | wc -l
}

total=0
for src in crates/*/src src; do
    lines=$(count "$src")
    printf '%-24s %6d\n' "$src" "$lines"
    total=$((total + lines))
done
printf '%-24s %6d\n' total "$total"

#!/usr/bin/env bash
# Runs the full set twice back to back on this commit and host and prints,
# for each workload x metric pair, the relative difference against its
# bound. Fails when an end-to-end metric differs by more than its bound or
# an exact (simulated) metric or digest differs at all.
#
#   benchmark/repeat.sh [--seed S] [--traced]    arguments go to run.sh
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac

for pass in 1 2; do
    rm -rf "$here/out/repeat-$pass"
    "$here/run.sh" --out "$here/out/repeat-$pass" "$@" >/dev/null
done
"$target/release/smt-benchmark" \
    --compare "$here/out/repeat-1/results.json" "$here/out/repeat-2/results.json" \
    --bounds "$root/BENCHMARK.json"

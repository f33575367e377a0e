#!/usr/bin/env bash
# Builds the benchmark (release, offline) and runs each workload in its own
# process. See README.md beside this file.
#
#   benchmark/run.sh [--seed S] [--workload NAME]     end-to-end metrics
#   benchmark/run.sh --traced [...]                   per-layer metrics + spans
#   benchmark/run.sh --smoke                          both passes, tiny sizes
#
# The benchmark driver calls it as
#   bash benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
# and reads the last line of standard output.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac

seed=42
seconds=10
out="$here/out"
workloads=(hotloop_standard hotloop_membound hotloop_riscv study_cold study_resume)
passes=(0)
extra=()
while [ $# -gt 0 ]; do
    case "$1" in
        --seed) seed="$2"; shift 2 ;;
        --seconds) seconds="$2"; shift 2 ;;
        --workload) workloads=("$2"); shift 2 ;;
        --out) out="$2"; shift 2 ;;
        --trace) passes=("$2"); shift 2 ;;
        --traced) passes=(1); shift ;;
        --smoke) passes=(0 1); seconds=0; extra+=(--smoke); shift ;;
        *) echo "run.sh: unknown argument '$1'" >&2; exit 2 ;;
    esac
done

# Run from the repository root with relative ELF paths: a sweep names its
# checkpoint-cache files after the mix string, and an absolute path of any
# depth would push them past the file-name limit.
case "$out" in /*) ;; *) out="$PWD/$out" ;; esac
cd "$root"

# Cargo reports on standard error, so standard output stays the benchmark's.
build() { # <target dir> [cargo flags...]
    local dir="$1"; shift
    cargo build --release --offline --manifest-path "$here/Cargo.toml" --target-dir "$dir" "$@"
}

rustc_version="$(rustc -V 2>/dev/null || echo unknown)"
git_rev="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)"

build "$target"
status=0
for trace in "${passes[@]}"; do
    bin="$target/release/smt-benchmark"
    if [ "$trace" = 1 ]; then
        # Same sources with smt-core's phase probes, in a second target dir.
        build "$target/traced" --features traced
        bin="$target/traced/release/smt-benchmark"
    fi
    for workload in "${workloads[@]}"; do
        "$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace" \
            --repo-root . --out "$out" --untraced-bin "$target/release/smt-benchmark" \
            --rustc "$rustc_version" --git-rev "$git_rev" ${extra[@]+"${extra[@]}"} || status=$?
    done
done
exit "$status"

#!/usr/bin/env bash
# Same-host interleaved A/B of this working tree against a parent revision,
# judged per end-to-end metric of BENCHMARK.json.
#
#   scripts/ab.sh [--pairs N] [--seconds S] [--workload W]... PARENT_REV
#
# Extracts PARENT_REV (`git archive`) into a directory under $TMPDIR,
# removed on exit; builds each tree's `benchmark/` package offline into its
# own target directory there; then runs N pairs (default 10, at least 2) of
# `benchmark/run.sh --workload W --seconds S` per workload, each side from
# its own tree's root, alternating which side runs first. S defaults to
# BENCHMARK.json's `run_seconds`, the workloads to all of its workloads.
#
# Prints, per workload and end-to-end metric: each side's median and
# quartiles, the change in the median, how many pairs the change won
# (ties count for neither side), and a verdict:
#
#   worse        the change's median is worse than the parent's by more
#                than the metric's bound
#   unresolved   not worse, but one side's quartile spread is wider than
#                the bound, and not every change run beats every parent run
#   ahead        the change won at least 9 in 10 pairs and its median moved
#                by more than the parent's quartile spread, the better way
#   within bound everything else
#
# Exits nonzero when any run prints `"correct": false` or any metric is
# worse. Reads `benchmark/` and BENCHMARK.json; writes neither.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"

pairs=10
seconds=""
workloads=()
usage="usage: scripts/ab.sh [--pairs N] [--seconds S] [--workload W]... PARENT_REV"
while [ $# -gt 1 ]; do
    case "$1" in
        --pairs) pairs="$2"; shift 2 ;;
        --seconds) seconds="$2"; shift 2 ;;
        --workload) workloads+=("$2"); shift 2 ;;
        *) echo "ab.sh: unknown argument '$1'" >&2; echo "$usage" >&2; exit 2 ;;
    esac
done
if [ $# -ne 1 ] || [ "${1#-}" != "$1" ] || ! [ "$pairs" -ge 2 ] 2>/dev/null; then
    echo "$usage" >&2
    exit 2
fi
parent_rev="$(git -C "$root" rev-parse --verify "$1^{commit}")"

contract="$root/BENCHMARK.json"
[ -n "$seconds" ] || seconds="$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$contract")"
if [ ${#workloads[@]} -eq 0 ]; then
    mapfile -t workloads < <(python3 -c 'import json,sys; [print(w["name"]) for w in json.load(open(sys.argv[1]))["workloads"]]' "$contract")
fi

work="$(mktemp -d "${TMPDIR:-/tmp}/ab.XXXXXX")"
trap 'rm -rf "$work"' EXIT
mkdir -p "$work/parent" "$work/runs"
git -C "$root" archive "$parent_rev" | tar -x -C "$work/parent"

declare -A tree=([parent]="$work/parent" [change]="$root")
for side in parent change; do
    echo "ab: building $side benchmark" >&2
    cargo build --release --offline --quiet \
        --manifest-path "${tree[$side]}/benchmark/Cargo.toml" --target-dir "$work/target-$side"
done

status=0
run() { # <side> <workload> <pair>
    local out="$work/runs/$1.$2.$3"
    # run.sh runs from its own tree's root; its result document goes to
    # the scratch directory, not into the tree's benchmark/out.
    if ! CARGO_TARGET_DIR="$work/target-$1" bash "${tree[$1]}/benchmark/run.sh" \
        --workload "$2" --seconds "$seconds" --out "$work/out-$1" 2>"$out.err" | tail -n 1 >"$out"; then
        echo "ab: $1 $2 pair $3 exited nonzero" >&2
        status=1
    fi
}
for pair in $(seq 1 "$pairs"); do
    for workload in "${workloads[@]}"; do
        if [ $((pair % 2)) -eq 1 ]; then order=(parent change); else order=(change parent); fi
        for side in "${order[@]}"; do
            echo "ab: pair $pair/$pairs $workload $side" >&2
            run "$side" "$workload" "$pair"
        done
    done
done

python3 - "$contract" "$work/runs" "$pairs" "${workloads[@]}" <<'EOF' || status=1
import json, statistics, sys

contract, runs, pairs, workloads = sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4:]
metrics = json.load(open(contract))["end_to_end"]

def load(side, workload, pair):
    path = f"{runs}/{side}.{workload}.{pair}"
    try:
        return json.loads(open(path).read())
    except ValueError:
        sys.stderr.write(f"{side} {workload} pair {pair}: no result line\n")
        sys.stderr.write(open(path + ".err").read()[-2000:])
        return None

def quartiles(xs):
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3

failed = False
print(f"{pairs} pairs; quartiles q1/median/q3; delta = change median vs parent median")
for w in workloads:
    results = {s: [load(s, w, p) for p in range(1, pairs + 1)] for s in ("parent", "change")}
    for side, docs in results.items():
        bad = [i + 1 for i, d in enumerate(docs) if not d or not d.get("correct") or d.get("failed")]
        if bad:
            failed = True
            print(f"{w}: {side} incorrect or failed operations in pair(s) {bad}")
    complete = [i for i in range(pairs) if results["parent"][i] and results["change"][i]]
    print(f"\n{w}")
    print(f"  {'metric':<14}{'parent':>34}{'change':>34}{'delta':>9}{'ahead':>8}  verdict")
    for m in metrics:
        name, bound, lower = m["name"], m["bound"], m["better"] == "lower"
        a = [results["parent"][i]["metrics"][name]["value"] for i in complete
             if name in results["parent"][i]["metrics"] and name in results["change"][i]["metrics"]]
        b = [results["change"][i]["metrics"][name]["value"] for i in complete
             if name in results["parent"][i]["metrics"] and name in results["change"][i]["metrics"]]
        if len(a) < 2:
            print(f"  {name:<14} missing")
            failed = True
            continue
        (a1, am, a3), (b1, bm, b3) = quartiles(a), quartiles(b)
        better = (lambda x, y: x < y) if lower else (lambda x, y: x > y)
        ahead = sum(better(y, x) for x, y in zip(a, b))
        delta = (bm - am) / am if am else 0.0
        worse_by = delta if lower else -delta
        spread = max(a3 - a1, b3 - b1) / am if am else 0.0
        dominates = all(better(y, x) for x in a for y in b)
        if worse_by > bound:
            verdict = f"worse (bound {bound:.0%})"
            failed = True
        elif spread > bound and not dominates:
            verdict = f"unresolved (spread {spread:.1%} > bound {bound:.0%})"
        elif ahead >= 0.9 * len(a) and abs(bm - am) > a3 - a1 and worse_by < 0:
            verdict = "ahead"
        else:
            verdict = "within bound"
        if a == b and len(set(a)) == 1:
            verdict += ", identical"
        cell = lambda q1, q2, q3: f"{q1:.6g}/{q2:.6g}/{q3:.6g}"
        print(f"  {name:<14}{cell(a1, am, a3):>34}{cell(b1, bm, b3):>34}"
              f"{delta:>+9.2%}{ahead:>5}/{len(a):<2}  {verdict}")
sys.exit(1 if failed else 0)
EOF
exit "$status"

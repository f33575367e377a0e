#!/usr/bin/env bash
# Kill-and-resume gate for the sweep journal.
#
#   scripts/kill_resume.sh [MODE ARGS...]
#
# MODE ARGS pick the sweep mode and its own axis; the default is
# `--study issue --issue oldest,spec_last`, and CI also runs
# `--study ablation --ablations perfect_icache` -- every mode journals
# through the one sweep engine, so every mode gets the same gate.
#
# Runs a release-mode sweep with `--journal`, SIGKILLs the
# process mid-flight (after at least one cell has been journaled, before
# the last one has), resumes the sweep from the same journal directory,
# and byte-compares the resumed JSON document against an uninterrupted
# reference run. This is the crash-consistency property the journal
# exists to provide: a killed sweep, resumed, produces output
# byte-identical to one that was never interrupted.
#
# Landing the kill inside the window is inherently racy, so the script
# retries up to KR_ATTEMPTS times; a run that finishes (or dies) outside
# the window is discarded, not failed. Only exhausting every attempt —
# or a byte mismatch after a clean mid-sweep kill — fails the gate.
#
# Tunables: KR_CYCLES (default 60000), KR_WARMUP (default 20000) size
# the per-cell work; KR_ATTEMPTS (default 5) bounds the kill retries.

set -euo pipefail
cd "$(dirname "$0")/.."

CYCLES="${KR_CYCLES:-60000}"
WARMUP="${KR_WARMUP:-20000}"
ATTEMPTS="${KR_ATTEMPTS:-5}"

MODE=("$@")
if [ "${#MODE[@]}" -eq 0 ]; then
    MODE=(--study issue --issue oldest,spec_last)
fi
# The mode's own axis x 2 fetch x 2 partitions x 2 mixes x 2 seeds.
ARGS=("${MODE[@]}" --fetch rr,icount
    --partition 2.2,2.8 --mixes standard,int8 --seeds 42,43
    --cycles "$CYCLES" --warmup "$WARMUP" --jobs 2)

cargo build --release -p smt-experiments --bin smt_exp
BIN=target/release/smt_exp

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

echo "kill-resume: reference run (uninterrupted, no journal): ${MODE[*]}"
"$BIN" "${ARGS[@]}" --json "$work/ref.json" >/dev/null
# One "report" object per completed cell, whatever the mode.
TOTAL=$(grep -c '"report": {' "$work/ref.json")

journaled() {
    # Tolerates a not-yet-created directory under pipefail.
    { ls "$1"/cell-*.smtj 2>/dev/null || true; } | wc -l
}

for attempt in $(seq 1 "$ATTEMPTS"); do
    dir="$work/journal-$attempt"
    "$BIN" "${ARGS[@]}" --journal "$dir" --json "$work/first.json" \
        >/dev/null 2>&1 &
    pid=$!
    while kill -0 "$pid" 2>/dev/null; do
        n=$(journaled "$dir")
        if [ "$n" -gt 0 ] && [ "$n" -lt "$TOTAL" ]; then
            kill -KILL "$pid" 2>/dev/null || true
            break
        fi
        sleep 0.02
    done
    wait "$pid" 2>/dev/null || true
    n=$(journaled "$dir")
    if [ "$n" -gt 0 ] && [ "$n" -lt "$TOTAL" ]; then
        echo "kill-resume: attempt $attempt: SIGKILL landed with $n/$TOTAL cells journaled"
        "$BIN" "${ARGS[@]}" --journal "$dir" --json "$work/resumed.json" \
            | grep '^journal:' || true
        cmp "$work/ref.json" "$work/resumed.json"
        echo "kill-resume: PASS -- resumed document is byte-identical to the uninterrupted run"
        exit 0
    fi
    echo "kill-resume: attempt $attempt: $n/$TOTAL journaled at exit -- kill missed the window, retrying"
done

echo "kill-resume: FAIL -- no attempt landed a mid-sweep kill in $ATTEMPTS tries" >&2
exit 1

#!/usr/bin/env bash
# Cold/warm/corrupt smoke for the persistent content-addressed store: runs
# psaflowc three times against the same --cache-dir —
#
#   1. cold   (empty store; fills it),
#   2. warm   (the flow-result tier answers the whole compile; its
#      --trace-out counters must show flow_cache.hits >= 1),
#   3. after flipping one byte in every cached entry (checksums reject the
#      corrupted entries, the run silently recomputes and repairs),
#
# and requires all three runs to write byte-identical designs, summaries,
# stdout and --explain / --explain-md decision reports.
# This is the end-to-end form of the guarantee the engine tests pin down:
# the disk cache may only ever change *when* results are computed, never
# *what* is computed.
#
# usage: scripts/cache_smoke.sh [psaflowc-binary] [app]
set -euo pipefail

cd "$(dirname "$0")/.."
PSAFLOWC=${1:-build/tools/psaflowc}
APP=${2:-adpredictor}

if [ ! -x "$PSAFLOWC" ]; then
    echo "psaflowc binary not found at '$PSAFLOWC' (build it first," \
         "or pass the path as the first argument)" >&2
    exit 1
fi

WORK=$(mktemp -d "${TMPDIR:-/tmp}/psaflow-cache-smoke.XXXXXX")
trap 'rm -rf "$WORK"' EXIT
CACHE="$WORK/cache"

run() { # run <outdir> [extra flags...]
    local tag=$1
    shift
    "$PSAFLOWC" --app "$APP" --cache-dir "$CACHE" --out "$WORK/$tag" \
        --explain "$WORK/$tag.explain.json" \
        --explain-md "$WORK/$tag.explain.md" "$@" > "$WORK/$tag.stdout"
}

echo "== cache smoke: $APP via $PSAFLOWC =="
run cold
ENTRIES=$(find "$CACHE" -name '*.cas' | wc -l)
echo "cold run populated $ENTRIES cache entries"
test "$ENTRIES" -gt 0

run warm --trace-out "$WORK/warm.trace.json"
HITS=$(python3 -c 'import json, sys
print(json.load(open(sys.argv[1]))["counters"].get("flow_cache.hits", 0))' \
    "$WORK/warm.trace.json")
echo "warm run: flow_cache.hits=$HITS"
if [ "$HITS" -lt 1 ]; then
    echo "FAIL: the warm run was not answered by the flow-result tier" >&2
    exit 1
fi

# Flip one byte in the middle of every entry; the checksum must catch it.
for entry in $(find "$CACHE" -name '*.cas'); do
    size=$(stat -c %s "$entry")
    printf '\xff' | dd of="$entry" bs=1 seek=$((size / 2)) conv=notrunc \
        status=none
done
run corrupt

for outdir in warm corrupt; do
    for file in "$WORK/cold"/*; do
        diff -q "$file" "$WORK/$outdir/$(basename "$file")" > /dev/null || {
            echo "FAIL: $outdir run differs from cold run on" \
                 "$(basename "$file")" >&2
            exit 1
        }
    done
    for report in explain.json explain.md; do
        diff -q "$WORK/cold.$report" "$WORK/$outdir.$report" > /dev/null || {
            echo "FAIL: $outdir run --$report differs from cold run" >&2
            exit 1
        }
    done
    # stdout must match too, modulo the differing --out / --explain paths
    # and the warm run's trace note.
    if ! diff <(sed "s|$WORK/cold|<out>|g" "$WORK/cold.stdout") \
              <(sed -e "s|$WORK/$outdir|<out>|g" -e '/^wrote json trace/d' \
                    "$WORK/$outdir.stdout"); then
        echo "FAIL: $outdir run stdout differs from cold run" >&2
        exit 1
    fi
done

echo "cache smoke passed: cold, warm and corrupt-repair runs identical"

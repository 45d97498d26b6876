#!/usr/bin/env bash
# End-to-end smoke for the observability plane:
#
#   1. run psaflowc with every exporter on (Chrome trace, registry trace,
#      decision reports, Prometheus metrics) and validate the artifacts
#      with psaflow-obscheck — one rooted span tree, well-formed explain
#      report, sane registry schema,
#   2. repeat under PSAFLOW_JOBS=4: pool fan-out must still produce a
#      single rooted span tree,
#   3. rerun with PSAFLOW_TRACE=0 and no exporters and require the design
#      outputs to be byte-identical — observability must never change
#      what is computed,
#   4. start a psaflowd, compile once through it, scrape the Prometheus
#      endpoint and the structured-log ring over the socket, then SIGTERM
#      and require a clean drain.
#
# usage: scripts/obs_smoke.sh [psaflowc] [psaflow-obscheck] [psaflowd] \
#                             [psaflow-client]
set -euo pipefail

cd "$(dirname "$0")/.."
. scripts/lib.sh
PSAFLOWC=${1:-build/tools/psaflowc}
OBSCHECK=${2:-build/tools/psaflow-obscheck}
PSAFLOWD=${3:-build/tools/psaflowd}
CLIENT=${4:-build/tools/psaflow-client}

require_bins "$PSAFLOWC" "$OBSCHECK" "$PSAFLOWD" "$CLIENT"

smoke_workdir obs-smoke

APP=nbody
echo "== obs smoke: $APP via $PSAFLOWC =="

# ---- 1. every exporter on, sequential --------------------------------------
"$PSAFLOWC" --app "$APP" --out "$WORK/obs-on" \
    --trace-out "$WORK/flame.json" --trace-format chrome \
    --explain "$WORK/why.json" --explain-md "$WORK/why.md" \
    --metrics-out "$WORK/metrics.prom" > "$WORK/obs-on.stdout"
"$OBSCHECK" --chrome-trace "$WORK/flame.json" --expect-roots 1
"$OBSCHECK" --explain "$WORK/why.json"
grep -q '^## ' "$WORK/why.md" || {
    echo "FAIL: markdown explain report has no branch sections" >&2
    exit 1
}
grep -q '^# TYPE ' "$WORK/metrics.prom" || {
    echo "FAIL: metrics file carries no Prometheus TYPE headers" >&2
    exit 1
}

# The registry-format trace must validate too.
"$PSAFLOWC" --app "$APP" --out "$WORK/obs-registry" \
    --trace-out "$WORK/trace.json" > /dev/null
"$OBSCHECK" --trace "$WORK/trace.json"

# ---- 2. pool fan-out keeps one rooted tree ---------------------------------
PSAFLOW_JOBS=4 "$PSAFLOWC" --app "$APP" --out "$WORK/obs-par" \
    --trace-out "$WORK/flame-par.json" --trace-format chrome > /dev/null
"$OBSCHECK" --chrome-trace "$WORK/flame-par.json" --expect-roots 1
echo "span trees rooted: sequential and PSAFLOW_JOBS=4"

# ---- 3. observability must not change the designs --------------------------
PSAFLOW_TRACE=0 "$PSAFLOWC" --app "$APP" --out "$WORK/obs-off" \
    > "$WORK/obs-off.stdout"
for file in "$WORK/obs-off"/*; do
    diff -q "$file" "$WORK/obs-on/$(basename "$file")" > /dev/null || {
        echo "FAIL: design output differs with tracing on:" \
             "$(basename "$file")" >&2
        exit 1
    }
done
echo "designs byte-identical with tracing on and PSAFLOW_TRACE=0"

# ---- 4. daemon scrape ------------------------------------------------------
SOCK="$WORK/psaflowd.sock"
"$PSAFLOWD" --socket "$SOCK" --workers 2 --out "$WORK/served" \
    --cache-dir "$WORK/cache" > "$WORK/daemon.stdout" 2>&1 &
DAEMON_PID=$!
wait_ready "$CLIENT" "$SOCK"
"$CLIENT" --socket "$SOCK" --app adpredictor --out req > /dev/null

"$CLIENT" --socket "$SOCK" --metrics > "$WORK/scrape.prom"
grep -q '^# TYPE psaflowd_requests_total counter' "$WORK/scrape.prom" || {
    echo "FAIL: daemon scrape missing psaflowd_requests_total" >&2
    cat "$WORK/scrape.prom" >&2
    exit 1
}
grep -q 'psaflowd_requests_total{outcome="completed"} 1' \
    "$WORK/scrape.prom" || {
    echo "FAIL: daemon scrape did not count the completed compile" >&2
    exit 1
}
grep -q '^# TYPE psaflowd_request_latency_us histogram' \
    "$WORK/scrape.prom" || {
    echo "FAIL: daemon scrape missing the latency histogram" >&2
    exit 1
}

"$CLIENT" --socket "$SOCK" --logs > "$WORK/logs.txt"
grep -q 'daemon listening' "$WORK/logs.txt" || {
    echo "FAIL: log ring missing the startup record" >&2
    cat "$WORK/logs.txt" >&2
    exit 1
}
echo "daemon served Prometheus metrics and the log ring over the socket"

stop_cleanly "$DAEMON_PID" daemon "$WORK/daemon.stdout"

echo "obs smoke passed: rooted span trees, valid explain reports," \
     "zero-cost-off byte-identity and a live metrics scrape"

#!/usr/bin/env bash
# End-to-end smoke for cluster-wide observability:
#
#   1. start a CAS-home psaflowd plus two ring shards (both reading the
#      home's CAS through --cas-upstream, spans on via PSAFLOW_TRACE=1)
#      behind psaflow-router,
#   2. fire one *traced* compile through the router and require the
#      assembled Chrome trace to be a single rooted tree — validated by
#      psaflow-obscheck with --check-nesting — carrying every wire hop:
#      client:request, router:relay, serve:request / queue-wait /
#      execute, and the remote-CAS fetch (cas:remote-get grafting the
#      upstream's serve:cas_get),
#   3. require the routed design to be byte-identical to single-shot
#      psaflowc under PSAFLOW_TRACE=0 — tracing must never change what
#      is computed,
#   4. scrape --cluster-stats / --cluster-metrics off the router and
#      require the merged label-free histogram count to equal the sum of
#      the per-shard-labeled counts exactly (the fan-in merges the same
#      bucket arrays it scraped), and require shards to refuse cluster
#      requests,
#   5. inject a slow request (test-only sleep past --slo-ms) into a
#      shard and require its flight recorder to capture the digest,
#      count the SLO breach, and snapshot it to the structured log,
#   6. SIGTERM everything and require clean exits.
#
# usage: scripts/obs_cluster_smoke.sh [psaflowd] [psaflow-router]
#                                     [psaflow-client] [psaflowc]
#                                     [psaflow-obscheck]
set -euo pipefail

cd "$(dirname "$0")/.."
. scripts/lib.sh
PSAFLOWD=${1:-build/tools/psaflowd}
ROUTER=${2:-build/tools/psaflow-router}
CLIENT=${3:-build/tools/psaflow-client}
PSAFLOWC=${4:-build/tools/psaflowc}
OBSCHECK=${5:-build/tools/psaflow-obscheck}

require_bins "$PSAFLOWD" "$ROUTER" "$CLIENT" "$PSAFLOWC" "$OBSCHECK"

smoke_workdir obs-cluster
ROUTER_SOCK="$WORK/router.sock"

echo "== obs cluster smoke via $ROUTER =="

# CAS home: not in the ring, serves both shards' remote tier so a cold
# compile on either shard produces a cross-process CAS hop.
"$PSAFLOWD" --listen 127.0.0.1:0 --shard-name home --workers 2 \
    --out "$WORK/out-home" --cache-dir "$WORK/cache-home" \
    > "$WORK/home.stdout" 2>&1 &
PID_HOME=$!
PORT_HOME=$(scrape_port "$WORK/home.stdout")

for shard in s1 s2; do
    PSAFLOW_TRACE=1 "$PSAFLOWD" --listen 127.0.0.1:0 \
        --shard-name "$shard" --workers 2 --queue-depth 8 \
        --out "$WORK/out-$shard" --cache-dir "$WORK/cache-$shard" \
        --cas-upstream "127.0.0.1:$PORT_HOME" \
        --enable-test-endpoints --slo-ms 50 \
        > "$WORK/$shard.stdout" 2> "$WORK/$shard.stderr" &
    if [ "$shard" = s1 ]; then PID_1=$!; else PID_2=$!; fi
done
PORT_1=$(scrape_port "$WORK/s1.stdout")
PORT_2=$(scrape_port "$WORK/s2.stdout")

"$ROUTER" --socket "$ROUTER_SOCK" \
    --shard "s1=127.0.0.1:$PORT_1" --shard "s2=127.0.0.1:$PORT_2" \
    > "$WORK/router.stdout" 2>&1 &
PID_ROUTER=$!
wait_ready "$CLIENT" "$ROUTER_SOCK"
echo "fleet up: home tcp:$PORT_HOME, s1 tcp:$PORT_1, s2 tcp:$PORT_2," \
     "router on $ROUTER_SOCK"

# ---- 2. one traced compile, one rooted cross-process tree ------------------
APP=nbody
"$CLIENT" --socket "$ROUTER_SOCK" --app "$APP" --out "$WORK/served" \
    --trace-out "$WORK/trace.json" --trace-format chrome \
    > "$WORK/traced.stdout"
"$OBSCHECK" --chrome-trace "$WORK/trace.json" --expect-roots 1 \
    --check-nesting
for hop in "client:request" "router:relay" "serve:request" \
           "serve:queue-wait" "serve:execute" "cas:remote-get" \
           "serve:cas_get"; do
    grep -q "\"$hop\"" "$WORK/trace.json" || {
        echo "FAIL: assembled trace is missing the '$hop' hop" >&2
        cat "$WORK/trace.json" >&2
        exit 1
    }
done
echo "traced compile: single rooted tree with every wire hop," \
     "nesting checked"

# ---- 3. tracing must not change what is computed ---------------------------
PSAFLOW_TRACE=0 "$PSAFLOWC" --app "$APP" --out "$WORK/single" \
    > /dev/null
for file in "$WORK/single"/*; do
    diff -q "$file" "$WORK/served/$(basename "$file")" > /dev/null || {
        echo "FAIL: traced routed design differs from untraced" \
             "single-shot psaflowc: $(basename "$file")" >&2
        exit 1
    }
done
echo "designs byte-identical: traced via router == PSAFLOW_TRACE=0" \
     "single-shot"

# ---- 4. fleet fan-in: stats, metrics, exact sums ---------------------------
"$CLIENT" --socket "$ROUTER_SOCK" --cluster-stats --json \
    > "$WORK/cluster-stats.json"
grep -q '"type":"cluster_stats"' "$WORK/cluster-stats.json" || {
    echo "FAIL: cluster_stats response has the wrong type" >&2
    exit 1
}
grep -q '"shards_live":2' "$WORK/cluster-stats.json" || {
    echo "FAIL: router does not see both shards live" >&2
    cat "$WORK/cluster-stats.json" >&2
    exit 1
}

"$CLIENT" --socket "$ROUTER_SOCK" --cluster-metrics \
    > "$WORK/cluster.prom"
for shard in s1 s2; do
    grep -q "psaflow_cluster_shard_up{shard=\"$shard\"" \
        "$WORK/cluster.prom" || {
        echo "FAIL: no psaflow_cluster_shard_up series for $shard" >&2
        exit 1
    }
done
merged=$(awk '$1 == "psaflow_cluster_request_latency_us_count" \
    {print $2}' "$WORK/cluster.prom")
shard_sum=$(awk '/^psaflow_cluster_shard_request_latency_us_count\{/ \
    {s += $2} END {print s}' "$WORK/cluster.prom")
if [ -z "$merged" ] || [ "$merged" != "$shard_sum" ]; then
    echo "FAIL: merged latency count '$merged' != per-shard sum" \
         "'$shard_sum'" >&2
    grep request_latency_us_count "$WORK/cluster.prom" >&2 || true
    exit 1
fi
echo "cluster metrics: merged histogram count ($merged) equals the" \
     "per-shard sum exactly"

# Shards must refuse cluster requests — they are a router-only surface.
rc=0
"$CLIENT" --socket "127.0.0.1:$PORT_1" --cluster-stats --json \
    > /dev/null 2>&1 || rc=$?
if [ "$rc" != 2 ]; then
    echo "FAIL: shard answered a cluster_stats request (exit $rc," \
         "expected 2)" >&2
    exit 1
fi

# ---- 5. flight recorder captures an injected slow request ------------------
"$CLIENT" --socket "127.0.0.1:$PORT_1" --sleep-ms 200 > /dev/null
"$CLIENT" --socket "127.0.0.1:$PORT_1" --flight --json \
    > "$WORK/flight.json"
breaches=$(sed -n 's/.*"slo_breaches":\([0-9]*\).*/\1/p' \
    "$WORK/flight.json")
if [ -z "$breaches" ] || [ "$breaches" -lt 1 ]; then
    echo "FAIL: shard s1 counted no SLO breach after a 200 ms sleep" \
         "against a 50 ms SLO" >&2
    cat "$WORK/flight.json" >&2
    exit 1
fi
grep -q '"app":"sleep"' "$WORK/flight.json" || {
    echo "FAIL: flight recorder holds no digest for the slow sleep" >&2
    cat "$WORK/flight.json" >&2
    exit 1
}
grep -q "slo breach" "$WORK/s1.stderr" || {
    echo "FAIL: SLO breach was not snapshotted to the structured log" >&2
    cat "$WORK/s1.stderr" >&2
    exit 1
}
# The router's own recorder saw the forwarded compile.
"$CLIENT" --socket "$ROUTER_SOCK" --flight --json \
    > "$WORK/router-flight.json"
grep -q "\"app\":\"$APP\"" "$WORK/router-flight.json" || {
    echo "FAIL: router flight recorder holds no digest for the routed" \
         "compile" >&2
    cat "$WORK/router-flight.json" >&2
    exit 1
}
echo "flight recorder: $breaches SLO breach(es) captured on s1," \
     "breach logged, router digest present"

# ---- 6. clean shutdown -----------------------------------------------------
for pid_var in PID_ROUTER PID_1 PID_2 PID_HOME; do
    stop_cleanly "${!pid_var}" "$pid_var"
done

echo "obs cluster smoke passed: rooted cross-process trace, byte-" \
     "identity, exact metric fan-in, flight-recorded SLO breach," \
     "clean drains"

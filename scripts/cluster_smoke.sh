#!/usr/bin/env bash
# End-to-end smoke for the sharded serving cluster:
#
#   1. start two psaflowd shards on ephemeral TCP ports with separate
#      cache/output trees; shard b uses shard a as its remote-CAS
#      upstream, so its disk cache is a read-through over the wire,
#   2. start psaflow-router in front of both; first, with compiles sent
#      straight to one shard, prove the flow-result tier crosses the
#      upstream both ways: a's compile is a remote hit on b that runs
#      nothing, and b's compile, published to a, is a local hit on a,
#   3. fire 20 concurrent clients at the router — compiles across four apps (retrying on
#      backpressure) plus stats probes,
#   4. SIGKILL shard b while the router waits on it: every client must
#      still exit 0 (the router detects the transport failure and
#      retries the survivor inside the same request — zero corrupt or
#      lost responses),
#   5. require routed designs to be byte-identical to single-shot
#      psaflowc, require the router to have marked shard b unhealthy,
#      to export a compile-spill counter for each shard (a frozen shard b
#      sits at its load bound, so new compiles it owns spill to a), and
#      shard a to have received remote-CAS traffic from shard b,
#   6. SIGTERM the router and the surviving shard and require clean
#      drains: exit status 0, no orphan socket files.
#
# usage: scripts/cluster_smoke.sh [psaflowd] [psaflow-router]
#                                 [psaflow-client] [psaflowc]
set -euo pipefail

cd "$(dirname "$0")/.."
. scripts/lib.sh
PSAFLOWD=${1:-build/tools/psaflowd}
ROUTER=${2:-build/tools/psaflow-router}
CLIENT=${3:-build/tools/psaflow-client}
PSAFLOWC=${4:-build/tools/psaflowc}

require_bins "$PSAFLOWD" "$ROUTER" "$CLIENT" "$PSAFLOWC"

smoke_workdir cluster-smoke
ROUTER_SOCK="$WORK/router.sock"

echo "== cluster smoke via $ROUTER =="

# Shard a: the artifact home. Shard b: reads through a over the wire.
"$PSAFLOWD" --listen 127.0.0.1:0 --shard-name a --workers 2 \
    --queue-depth 8 --out "$WORK/out-a" --cache-dir "$WORK/cache-a" \
    > "$WORK/shard-a.stdout" 2>&1 &
PID_A=$!
PORT_A=$(scrape_port "$WORK/shard-a.stdout")

"$PSAFLOWD" --listen 127.0.0.1:0 --shard-name b --workers 2 \
    --queue-depth 8 --out "$WORK/out-b" --cache-dir "$WORK/cache-b" \
    --cas-upstream "127.0.0.1:$PORT_A" \
    > "$WORK/shard-b.stdout" 2>&1 &
PID_B=$!
PORT_B=$(scrape_port "$WORK/shard-b.stdout")

"$ROUTER" --socket "$ROUTER_SOCK" \
    --shard "a=127.0.0.1:$PORT_A" --shard "b=127.0.0.1:$PORT_B" \
    --health-interval-ms 100 \
    > "$WORK/router.stdout" 2>&1 &
PID_ROUTER=$!
wait_ready "$CLIENT" "$ROUTER_SOCK"
echo "fleet up: shard a tcp:$PORT_A, shard b tcp:$PORT_B, router on" \
     "$ROUTER_SOCK"

# Prove the remote tier deterministically before the chaos, in both
# directions, on compiles sent straight to one shard.
# counter <port> <name>: the shard's counter from --stats --json (0 if
# absent).
counter() {
    local value
    value=$("$CLIENT" --socket "127.0.0.1:$1" --stats --json |
        sed -n "s/.*\"counters\":{[^}]*\"$2\":\([0-9]*\).*/\1/p")
    echo "${value:-0}"
}
# compile_on <port> <app> <out>
compile_on() {
    "$CLIENT" --socket "127.0.0.1:$1" --app "$2" --out "$3" > /dev/null
}
# b reads a's flow result through its upstream: a hit that runs nothing.
compile_on "$PORT_A" bezier "$WORK/direct/a-bezier"
runs_b=$(counter "$PORT_B" interp.runs)
compile_on "$PORT_B" bezier "$WORK/direct/b-bezier"
if [ "$(counter "$PORT_B" flow_cache.hits)" != 1 ] ||
   [ "$(counter "$PORT_B" interp.runs)" != "$runs_b" ]; then
    echo "FAIL: shard b did not answer a's compile from a's flow result" >&2
    "$CLIENT" --socket "127.0.0.1:$PORT_B" --stats --json >&2
    exit 1
fi
# b publishes what it computes, so a's repeat is a local hit.
compile_on "$PORT_B" kmeans "$WORK/direct/b-kmeans"
hits_a=$(counter "$PORT_A" flow_cache.hits)
compile_on "$PORT_A" kmeans "$WORK/direct/a-kmeans"
if [ "$(counter "$PORT_A" flow_cache.hits)" != $((hits_a + 1)) ]; then
    echo "FAIL: shard a missed the flow result shard b published" >&2
    "$CLIENT" --socket "127.0.0.1:$PORT_A" --stats --json >&2
    exit 1
fi
for app in bezier kmeans; do
    diff -r "$WORK/direct/a-$app" "$WORK/direct/b-$app" > /dev/null || {
        echo "FAIL: shards a and b wrote different $app designs" >&2
        exit 1
    }
done
echo "flow results cross the upstream both ways: remote hit on b, local" \
     "hit on a from b's publish, identical designs"

# 20 concurrent clients through the router: 16 compiles (4 apps x 4, out
# dirs absolute so the designs land in one place whichever shard serves
# them) and 4 stats probes. Shard b is killed while they run.
APPS=(adpredictor kmeans nbody bezier)
pids=()
codes_dir="$WORK/codes"
mkdir -p "$codes_dir"
for i in $(seq 0 15); do
    app=${APPS[$((i % 4))]}
    (
        rc=0
        "$CLIENT" --socket "$ROUTER_SOCK" --app "$app" \
            --out "$WORK/served/req-$i" --retry 400 > /dev/null \
            2>> "$WORK/clients.stderr" || rc=$?
        echo "$rc" > "$codes_dir/compile-$i"
    ) &
    pids+=($!)
done
for i in 1 2 3 4; do
    (
        rc=0
        "$CLIENT" --socket "$ROUTER_SOCK" --stats --json \
            > "$WORK/stats-$i.json" 2>> "$WORK/clients.stderr" || rc=$?
        echo "$rc" > "$codes_dir/stats-$i"
    ) &
    pids+=($!)
done

# Mid-run crash: SIGKILL shard b, no drain, no warning, while the router
# is waiting on it. The router owes the clients intact responses
# regardless. A compile takes tens of milliseconds, so a kill at a fixed
# time can land between requests; instead, once the router reports a
# request in flight to b, freeze b and kill it only if that request is
# still waiting: it cannot finish, so the kill fails it mid-request.
router_waits_on_b() {
    local metrics
    metrics=$("$CLIENT" --socket "$ROUTER_SOCK" --metrics 2> /dev/null) ||
        return 1
    grep -q '^psaflow_router_shard_in_flight{shard="b"} [1-9]' \
        <<< "$metrics"
}
killed=0
for _ in $(seq 1 500); do
    if router_waits_on_b; then
        kill -STOP "$PID_B"
        sleep 0.05
        if router_waits_on_b; then
            kill -KILL "$PID_B"
            killed=1
            break
        fi
        kill -CONT "$PID_B"
    fi
    sleep 0.01
done
if [ "$killed" != 1 ]; then
    echo "FAIL: the router never had a request in flight to shard b" >&2
    exit 1
fi
wait "$PID_B" 2> /dev/null || true
echo "shard b killed mid-run"

wait "${pids[@]}" || true

for i in $(seq 0 15); do
    code=$(cat "$codes_dir/compile-$i")
    if [ "$code" != 0 ]; then
        echo "FAIL: compile client $i exited $code after shard kill" >&2
        cat "$WORK/clients.stderr" >&2
        exit 1
    fi
done
for i in 1 2 3 4; do
    code=$(cat "$codes_dir/stats-$i")
    if [ "$code" != 0 ]; then
        echo "FAIL: stats client $i exited $code" >&2
        exit 1
    fi
    grep -q '"role":"router"' "$WORK/stats-$i.json" || {
        echo "FAIL: stats response $i did not come from the router" >&2
        exit 1
    }
done
echo "20 concurrent clients done: 16 compiles ok, 4 router stats ok," \
     "zero lost responses across the shard kill"

# Byte-identity: routed designs must match single-shot psaflowc, whichever
# shard (including the failover survivor) produced them.
for i in 0 1 2 3; do
    app=${APPS[$i]}
    "$PSAFLOWC" --app "$app" --out "$WORK/single/$app" > /dev/null
    for file in "$WORK/single/$app"/*; do
        diff -q "$file" "$WORK/served/req-$i/$(basename "$file")" \
            > /dev/null || {
            echo "FAIL: routed design differs from psaflowc for $app:" \
                 "$(basename "$file")" >&2
            exit 1
        }
    done
done
echo "routed designs byte-identical to single-shot psaflowc"

# The router must have ejected shard b from the ring...
"$CLIENT" --socket "$ROUTER_SOCK" --metrics > "$WORK/router.metrics"
grep -q 'psaflow_router_shard_healthy{shard="b"} 0' "$WORK/router.metrics" || {
    echo "FAIL: router still reports shard b healthy" >&2
    grep psaflow_router_shard "$WORK/router.metrics" >&2 || true
    exit 1
}
# ...because the kill failed a request it had relayed to b.
grep -q '^psaflow_router_shard_failures_total{shard="b"} [1-9]' \
    "$WORK/router.metrics" || {
    echo "FAIL: no relayed request saw shard b fail" >&2
    grep psaflow_router_shard "$WORK/router.metrics" >&2 || true
    exit 1
}
grep -q 'psaflow_router_shard_healthy{shard="a"} 1' "$WORK/router.metrics" || {
    echo "FAIL: router lost shard a" >&2
    exit 1
}
# Bounded-load routing exports one spill counter per shard.
spills=""
for shard in a b; do
    series="psaflow_router_shard_spills_total{shard=\"$shard\"}"
    value=$(sed -n "s/^$series \([0-9]*\)$/\1/p" "$WORK/router.metrics")
    if [ -z "$value" ]; then
        echo "FAIL: no psaflow_router_shard_spills_total series for" \
             "shard $shard" >&2
        grep psaflow_router_shard "$WORK/router.metrics" >&2 || true
        exit 1
    fi
    spills="$spills $shard=$value"
done
echo "compile spills past a shard's load bound:$spills"

# ...and shard a must have served remote-CAS traffic for shard b (b's
# --cas-upstream makes its disk tier a read-through over the wire).
"$CLIENT" --socket "127.0.0.1:$PORT_A" --stats --json \
    > "$WORK/shard-a.stats.json"
cas_ops=$(sed -n \
    's/.*"cas_gets":\([0-9]*\).*"cas_puts":\([0-9]*\).*/\1 \2/p' \
    "$WORK/shard-a.stats.json")
total=0
for n in $cas_ops; do total=$((total + n)); done
if [ "$total" -eq 0 ]; then
    echo "FAIL: shard a saw no remote-CAS traffic from shard b" >&2
    cat "$WORK/shard-a.stats.json" >&2
    exit 1
fi
echo "router ejected the killed shard; shard a served $total remote-CAS" \
     "operation(s) for shard b"

# Graceful drain: SIGTERM router then shard a; both exit 0, no orphan
# socket file.
stop_cleanly "$PID_ROUTER" router "$WORK/router.stdout"
if [ -e "$ROUTER_SOCK" ]; then
    echo "FAIL: router socket file left behind after drain" >&2
    exit 1
fi

stop_cleanly "$PID_A" "shard a" "$WORK/shard-a.stdout"
grep -q "drained" "$WORK/shard-a.stdout" || {
    echo "FAIL: shard a did not report a drain" >&2
    cat "$WORK/shard-a.stdout" >&2
    exit 1
}

echo "cluster smoke passed: TCP sharding, mid-run shard kill with zero" \
     "lost responses, byte-identity, remote CAS, clean drains"

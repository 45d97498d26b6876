#!/usr/bin/env bash
# End-to-end smoke for the psaflowd compile service:
#
#   1. start a daemon on a scratch socket with a fresh cache,
#   2. fire 20 concurrent clients at it — 16 compiles across four apps
#      (retrying on backpressure), 3 stats probes, and one compile with a
#      1 ms deadline that must come back `deadline_exceeded` (exit 4),
#   3. require the daemon's designs to be byte-identical to single-shot
#      psaflowc runs of the same requests,
#   4. SIGTERM the daemon and require a clean drain: exit status 0, no
#      orphan socket file, nothing left under the scratch directory's
#      socket path.
#
# usage: scripts/daemon_smoke.sh [psaflowd] [psaflow-client] [psaflowc]
set -euo pipefail

cd "$(dirname "$0")/.."
. scripts/lib.sh
PSAFLOWD=${1:-build/tools/psaflowd}
CLIENT=${2:-build/tools/psaflow-client}
PSAFLOWC=${3:-build/tools/psaflowc}

require_bins "$PSAFLOWD" "$CLIENT" "$PSAFLOWC"

smoke_workdir daemon-smoke
SOCK="$WORK/psaflowd.sock"

echo "== daemon smoke via $PSAFLOWD =="
"$PSAFLOWD" --socket "$SOCK" --workers 4 --queue-depth 8 \
    --out "$WORK/served" --cache-dir "$WORK/cache" \
    > "$WORK/daemon.stdout" 2>&1 &
DAEMON_PID=$!
wait_ready "$CLIENT" "$SOCK"

# 20 concurrent clients: 16 compiles (4 apps x 4), 3 stats, 1 doomed by a
# 1 ms deadline on the slowest app against a cold cache. Compiles retry on
# overload responses, so backpressure slows them down but loses nothing.
APPS=(adpredictor kmeans nbody bezier)
pids=()
codes_dir="$WORK/codes"
mkdir -p "$codes_dir"
for i in $(seq 0 15); do
    app=${APPS[$((i % 4))]}
    (
        rc=0
        "$CLIENT" --socket "$SOCK" --app "$app" --out "req-$i" \
            --retry 400 > /dev/null 2>> "$WORK/clients.stderr" || rc=$?
        echo "$rc" > "$codes_dir/compile-$i"
    ) &
    pids+=($!)
done
for i in 1 2 3; do
    (
        rc=0
        "$CLIENT" --socket "$SOCK" --stats --json > "$WORK/stats-$i.json" \
            2>> "$WORK/clients.stderr" || rc=$?
        echo "$rc" > "$codes_dir/stats-$i"
    ) &
    pids+=($!)
done
(
    rc=0
    "$CLIENT" --socket "$SOCK" --app rushlarsen --deadline-ms 1 \
        --retry 400 --out doomed > /dev/null \
        2>> "$WORK/clients.stderr" || rc=$?
    echo "$rc" > "$codes_dir/deadline"
) &
pids+=($!)
wait "${pids[@]}" || true

for i in $(seq 0 15); do
    code=$(cat "$codes_dir/compile-$i")
    if [ "$code" != 0 ]; then
        echo "FAIL: compile client $i exited $code" >&2
        cat "$WORK/clients.stderr" >&2
        exit 1
    fi
done
for i in 1 2 3; do
    code=$(cat "$codes_dir/stats-$i")
    if [ "$code" != 0 ]; then
        echo "FAIL: stats client $i exited $code" >&2
        exit 1
    fi
    grep -q '"type":"stats"' "$WORK/stats-$i.json" || {
        echo "FAIL: stats response $i malformed" >&2
        exit 1
    }
done
code=$(cat "$codes_dir/deadline")
if [ "$code" != 4 ]; then
    echo "FAIL: 1ms-deadline client exited $code, wanted 4" \
         "(deadline_exceeded)" >&2
    cat "$WORK/clients.stderr" >&2
    exit 1
fi
echo "20 concurrent clients done: 16 compiles ok, 3 stats ok," \
     "1 deadline-exceeded as expected"

# Byte-identity: the daemon's designs must match single-shot psaflowc.
for i in 0 1 2 3; do
    app=${APPS[$i]}
    "$PSAFLOWC" --app "$app" --out "$WORK/single/$app" > /dev/null
    for file in "$WORK/single/$app"/*; do
        diff -q "$file" "$WORK/served/req-$i/$(basename "$file")" \
            > /dev/null || {
            echo "FAIL: daemon design differs from psaflowc for $app:" \
                 "$(basename "$file")" >&2
            exit 1
        }
    done
done
echo "daemon designs byte-identical to single-shot psaflowc"

# Graceful drain: SIGTERM, daemon exits 0, socket file removed.
stop_cleanly "$DAEMON_PID" daemon "$WORK/daemon.stdout"
if [ -e "$SOCK" ]; then
    echo "FAIL: socket file left behind after drain" >&2
    exit 1
fi
grep -q "drained" "$WORK/daemon.stdout" || {
    echo "FAIL: daemon did not report a drain" >&2
    cat "$WORK/daemon.stdout" >&2
    exit 1
}

echo "daemon smoke passed: concurrent serving, deadline isolation," \
     "byte-identity and clean SIGTERM drain"

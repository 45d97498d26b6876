#!/usr/bin/env bash
# End-to-end smoke for the flow-manifest surface:
#
#   1. export the builtin standard flow as a manifest
#      (`psaflowc --export-flow`) and require the stdout and file
#      spellings to agree,
#   2. re-import it through `psaflowc --flow` and require byte-identical
#      designs AND stdout against the builtin flow for every bundled app
#      at jobs 1 and jobs 4,
#   3. require an invalid manifest (unknown task id) to be rejected with
#      exit 2 and a located diagnostic before any compile starts,
#   3b. run `psaflowc --batch` entries whose "flow" is the manifest's file
#      path and require designs byte-identical to `psaflowc --flow` and
#      stdout byte-identical to the same batch with the inline object,
#   4. ship the manifest inside a compile request to a live psaflowd via
#      `psaflow-client --flow` and require the served designs to be
#      byte-identical to single-shot psaflowc,
#   5. run a quick `psaflow-fuzz --check-manifest` differential sweep.
#
# usage: scripts/manifest_smoke.sh [psaflowc] [psaflowd] [psaflow-client]
#        [psaflow-fuzz]
set -euo pipefail

cd "$(dirname "$0")/.."
. scripts/lib.sh
PSAFLOWC=${1:-build/tools/psaflowc}
PSAFLOWD=${2:-build/tools/psaflowd}
CLIENT=${3:-build/tools/psaflow-client}
FUZZ=${4:-build/tools/psaflow-fuzz}

require_bins "$PSAFLOWC" "$PSAFLOWD" "$CLIENT" "$FUZZ"
PSAFLOWC=$(readlink -f "$PSAFLOWC")
PSAFLOWD=$(readlink -f "$PSAFLOWD")
CLIENT=$(readlink -f "$CLIENT")
FUZZ=$(readlink -f "$FUZZ")

smoke_workdir manifest-smoke
SOCK="$WORK/psaflowd.sock"

echo "== manifest smoke via $PSAFLOWC =="

# 1. Export the builtin flow; the file and stdout spellings must agree.
"$PSAFLOWC" --export-flow "$WORK/std.json" > /dev/null
"$PSAFLOWC" --export-flow - > "$WORK/std-stdout.json"
diff -q "$WORK/std.json" "$WORK/std-stdout.json" > /dev/null || {
    echo "FAIL: --export-flow file and stdout spellings differ" >&2
    exit 1
}
echo "exported the standard flow as a manifest"

# 2. Byte-identity: builtin vs exported-manifest flow, all apps, jobs 1/4.
# Each run happens in its own cwd with the same relative --out so stdout
# (which prints the out dir) is comparable byte for byte.
APPS=(adpredictor kmeans nbody bezier rushlarsen)
for app in "${APPS[@]}"; do
    for jobs in 1 4; do
        mkdir -p "$WORK/builtin/$app-$jobs" "$WORK/manifest/$app-$jobs"
        (cd "$WORK/builtin/$app-$jobs" &&
         "$PSAFLOWC" --app "$app" --jobs "$jobs" --out designs \
             > stdout.txt)
        (cd "$WORK/manifest/$app-$jobs" &&
         "$PSAFLOWC" --app "$app" --jobs "$jobs" --out designs \
             --flow "$WORK/std.json" > stdout.txt)
        diff -r "$WORK/builtin/$app-$jobs" "$WORK/manifest/$app-$jobs" \
            > /dev/null || {
            echo "FAIL: --flow std.json differs from the builtin flow" \
                 "for $app at jobs=$jobs" >&2
            diff -r "$WORK/builtin/$app-$jobs" \
                 "$WORK/manifest/$app-$jobs" >&2 || true
            exit 1
        }
    done
done
echo "exported manifest byte-identical to the builtin flow" \
     "(${#APPS[@]} apps x jobs 1,4: designs + stdout)"

# 3. An invalid manifest is rejected up front with a located diagnostic.
cat > "$WORK/bad.json" <<'EOF'
{"psaflow_manifest": 1, "prologue": ["no-such-task"]}
EOF
rc=0
"$PSAFLOWC" --app nbody --out "$WORK/never" --flow "$WORK/bad.json" \
    > /dev/null 2> "$WORK/bad.stderr" || rc=$?
if [ "$rc" != 2 ]; then
    echo "FAIL: invalid manifest exited $rc, wanted 2" >&2
    exit 1
fi
grep -q "\$.prologue\[0\]: unknown task id 'no-such-task'" \
    "$WORK/bad.stderr" || {
    echo "FAIL: invalid manifest missing the located diagnostic:" >&2
    cat "$WORK/bad.stderr" >&2
    exit 1
}
if [ -e "$WORK/never" ]; then
    echo "FAIL: invalid manifest still produced output" >&2
    exit 1
fi
echo "invalid manifest rejected with exit 2 and a located diagnostic"

# 3b. Batch entries may name their flow by file path (the operator owns the
# batch file). Designs must match `psaflowc --flow` on the same file; the
# batch prints its own table, so its stdout must match the same batch with
# the manifest inline.
mkdir -p "$WORK/batch-path" "$WORK/batch-inline"
cp "$WORK/std.json" "$WORK/batch-path/std.json"
INLINE=$(cat "$WORK/std.json")
for app in nbody kmeans; do
    echo "{\"app\": \"$app\", \"flow\": \"std.json\", \"out\": \"designs/$app\"}"
done | paste -sd, | sed 's/^/[/; s/$/]/' > "$WORK/batch-path/batch.json"
for app in nbody kmeans; do
    echo "{\"app\": \"$app\", \"flow\": $INLINE, \"out\": \"designs/$app\"}"
done | paste -sd, | sed 's/^/[/; s/$/]/' > "$WORK/batch-inline/batch.json"
(cd "$WORK/batch-path" && "$PSAFLOWC" --batch batch.json > stdout.txt)
(cd "$WORK/batch-inline" && "$PSAFLOWC" --batch batch.json > stdout.txt)
diff "$WORK/batch-path/stdout.txt" "$WORK/batch-inline/stdout.txt" || {
    echo "FAIL: --batch stdout differs between a flow file path and the" \
         "inline manifest" >&2
    exit 1
}
for app in nbody kmeans; do
    diff -r "$WORK/batch-path/designs/$app" \
        "$WORK/manifest/$app-1/designs" > /dev/null || {
        echo "FAIL: --batch entry with a flow file path differs from" \
             "psaflowc --flow for $app" >&2
        diff -r "$WORK/batch-path/designs/$app" \
            "$WORK/manifest/$app-1/designs" >&2 || true
        exit 1
    }
done
echo "batch entries with a flow file path match psaflowc --flow"

# 4. The daemon accepts an in-request flow and serves identical designs.
"$PSAFLOWD" --socket "$SOCK" --workers 2 --out "$WORK/served" \
    > "$WORK/daemon.stdout" 2>&1 &
DAEMON_PID=$!
wait_ready "$CLIENT" "$SOCK"
"$CLIENT" --socket "$SOCK" --app nbody --flow "$WORK/std.json" \
    --out via-flow > /dev/null
for file in "$WORK/builtin/nbody-1/designs"/*; do
    diff -q "$file" "$WORK/served/via-flow/$(basename "$file")" \
        > /dev/null || {
        echo "FAIL: daemon design differs from psaflowc with the same" \
             "manifest: $(basename "$file")" >&2
        exit 1
    }
done
stop_cleanly "$DAEMON_PID" daemon "$WORK/daemon.stdout"
echo "daemon served the in-request flow byte-identically"

# 5. Quick differential sweep of the manifest fuzzer.
"$FUZZ" --check-manifest --seed 1 --runs 5 > "$WORK/fuzz.stdout" || {
    echo "FAIL: psaflow-fuzz --check-manifest found a mismatch" >&2
    cat "$WORK/fuzz.stdout" >&2
    exit 1
}
grep -q "5 manifest run(s), 0 failure(s)" "$WORK/fuzz.stdout" || {
    echo "FAIL: unexpected --check-manifest summary:" >&2
    cat "$WORK/fuzz.stdout" >&2
    exit 1
}
echo "manifest fuzz sweep clean"

echo "manifest smoke passed: export round-trip, byte-identity across" \
     "apps and jobs, located rejection, batch flow paths, daemon" \
     "in-request flows and the differential fuzzer"

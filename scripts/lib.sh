# Helpers shared by the smoke scripts. Source it after `set -euo pipefail`:
#
#   . scripts/lib.sh

# require_bins <path>...: exit 1 unless every path is an executable.
require_bins() {
    local bin
    for bin in "$@"; do
        if [ ! -x "$bin" ]; then
            echo "binary not found at '$bin' (build it first, or pass the" \
                 "path as an argument)" >&2
            exit 1
        fi
    done
}

# smoke_workdir <name>: create the scratch directory $WORK and arm an EXIT
# trap that SIGKILLs every background process the script has not yet
# waited for (daemons it spawned, client subshells), then removes $WORK.
smoke_workdir() {
    WORK=$(mktemp -d "${TMPDIR:-/tmp}/psaflow-$1.XXXXXX")
    trap smoke_cleanup EXIT
}

smoke_cleanup() {
    local pids
    pids=$(jobs -p)
    if [ -n "$pids" ]; then
        # shellcheck disable=SC2086 # one pid per word
        kill -KILL $pids 2> /dev/null || true
    fi
    rm -rf "$WORK"
}

# wait_ready <psaflow-client> <socket-or-host:port>: ping until the server
# answers (up to 5 s); a final failed ping fails the script.
wait_ready() {
    for _ in $(seq 1 100); do
        if "$1" --socket "$2" --ping > /dev/null 2>&1; then return 0; fi
        sleep 0.05
    done
    "$1" --socket "$2" --ping > /dev/null
}

# scrape_port <stdout-file>: print the "tcp port N" a daemon or router
# banner announces, waiting up to 5 s for startup.
scrape_port() {
    local stdout_file=$1 port=""
    for _ in $(seq 1 100); do
        port=$(sed -n 's/.*tcp port \([0-9][0-9]*\).*/\1/p' \
            "$stdout_file" 2> /dev/null | head -n 1)
        [ -n "$port" ] && break
        sleep 0.05
    done
    if [ -z "$port" ]; then
        echo "FAIL: no tcp port in $stdout_file" >&2
        cat "$stdout_file" >&2
        exit 1
    fi
    echo "$port"
}

# stop_cleanly <pid> <what> [<stdout-file>]: SIGTERM a daemon or router and
# fail unless it exits 0, printing <stdout-file> when it does not.
stop_cleanly() {
    local status=0
    kill -TERM "$1"
    wait "$1" || status=$?
    if [ "$status" != 0 ]; then
        echo "FAIL: $2 exited $status after SIGTERM" >&2
        if [ -n "${3:-}" ]; then cat "$3" >&2; fi
        exit 1
    fi
}

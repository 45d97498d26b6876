#!/usr/bin/env bash
# Guard for the session-owned process state: the library reads no
# environment and no code names a retired process-wide singleton.
#
#   1. No file under src/ except src/support/cli.cpp (the tools' one
#      environment reader, cli::load_environment) calls getenv.
#   2. No C++ source under src/, tools/, tests/, bench/, examples/ or
#      perfbench/ names ProfileCache::global, cas::store(, cas::configure,
#      FlightRecorder::global or ThreadPool::shared: a FlowSession, a
#      serve::Daemon or a cluster::Router owns each of these now.
#
# usage: scripts/state_guard.sh [repo root]
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

status=0
getenv_hits=$(grep -rnE '\bgetenv\b' src --include='*.cpp' --include='*.hpp' \
                  | grep -v '^src/support/cli\.cpp:' || true)
if [ -n "$getenv_hits" ]; then
    echo "FAIL: getenv outside src/support/cli.cpp:" >&2
    echo "$getenv_hits" >&2
    status=1
fi

singleton_hits=$(grep -rnE \
    'ProfileCache::global|cas::store\(|cas::configure|FlightRecorder::global|ThreadPool::shared' \
    src tools tests bench examples perfbench \
    --include='*.cpp' --include='*.hpp' || true)
if [ -n "$singleton_hits" ]; then
    echo "FAIL: retired process-wide singleton named:" >&2
    echo "$singleton_hits" >&2
    status=1
fi

[ "$status" -eq 0 ] && echo "state guard: no library getenv, no retired singleton"
exit "$status"

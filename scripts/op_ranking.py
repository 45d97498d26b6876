#!/usr/bin/env python3
"""Rank the VM's executed ops and fall-through op pairs from trace files.

Build with the op counter on, trace the compiles to rank, then rank:

    cmake -S . -B build-ops -DPSAFLOW_OP_COUNTER=ON
    cmake --build build-ops --target psaflowc
    for app in rushlarsen nbody bezier adpredictor kmeans; do
      for mode in informed uninformed; do
        build-ops/tools/psaflowc --app $app --mode $mode --jobs 1 \\
            --out /tmp/designs --trace-out /tmp/ops-$app-$mode.json
      done
    done
    python3 scripts/op_ranking.py /tmp/ops-*.json

Prints markdown tables of the top pairs and ops, each with its share of all
executed ops. A pair counts when its second op fell through from the first,
the only pairs a fused op can stand for; a fused run counts as its members.
"""
import argparse
import json
import sys


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("traces", nargs="+", help="--trace-out JSON files")
    parser.add_argument("--top", type=int, default=20,
                        help="rows per table (default 20)")
    args = parser.parse_args()

    ops, pairs = {}, {}
    for path in args.traces:
        with open(path) as f:
            counters = json.load(f)["counters"]
        for name, value in counters.items():
            for prefix, table in (("interp.op.", ops), ("interp.pair.", pairs)):
                if name.startswith(prefix):
                    key = name[len(prefix):]
                    table[key] = table.get(key, 0) + value
    total = sum(ops.values())
    if total == 0:
        sys.exit("no interp.op.* counters: was psaflowc built with "
                 "PSAFLOW_OP_COUNTER=ON?")

    print(f"{total} ops executed over {len(args.traces)} trace(s)\n")
    for title, table in (("pair", pairs), ("op", ops)):
        print(f"| {title} | count | share of ops |")
        print("|---|---:|---:|")
        ranked = sorted(table.items(), key=lambda kv: (-kv[1], kv[0]))
        for key, count in ranked[:args.top]:
            print(f"| `{key}` | {count} | {100.0 * count / total:.1f}% |")
        print()


if __name__ == "__main__":
    main()

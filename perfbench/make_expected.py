#!/usr/bin/env python3
"""Regenerate perfbench/expected.json from psaflowc.

    python3 perfbench/make_expected.py

Compiles every (app, mode) the op lists can draw with one
`psaflowc --batch` process and records, per request, the design names,
targets, devices and output files with their sha256. The benchmark then
requires every op -- through psaflowc, one daemon or the fleet -- to
reproduce these bytes. Refuses to write a file whose informed picks at
X = 4 disagree with the paper (EXPERIMENTS.md, Fig. 5).
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import oplist  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

# Fig. 5: the target the informed flow picks for each app at X = 4,
# written by hand from the paper, not from psaflow's output.
PAPER_PICKS_X4 = {"rushlarsen": "hip", "nbody": "hip", "bezier": "hip",
                  "adpredictor": "oneapi", "kmeans": "omp"}


def main():
    bin_dir = run.build()
    work = os.path.join(run.ROOT, ".bench_work", "expected")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    manifest = [{"app": app, "mode": mode, "out": os.path.join(work, str(i))}
                for i, (app, mode) in enumerate(oplist.KEYS)]
    with open(os.path.join(work, "manifest.json"), "w") as f:
        json.dump({"jobs": 1, "requests": manifest}, f)
    subprocess.run([os.path.join(bin_dir, "psaflow_tools", "psaflowc"),
                    "--batch", os.path.join(work, "manifest.json")],
                   check=True, stdout=subprocess.DEVNULL)

    sets, index, by_key = [], {}, {}
    for entry in manifest:
        files, _ = workloads.digest_dir(entry["out"])
        design_set = {"designs": workloads.designs_from_csv(entry["out"]),
                      "files": files}
        text = json.dumps(design_set, sort_keys=True)
        if text not in index:
            index[text] = len(sets)
            sets.append(design_set)
        by_key[workloads.request_key(entry)] = index[text]
    expected = {"paper_picks_x4": PAPER_PICKS_X4, "design_sets": sets,
                "requests": by_key}
    workloads.check_paper_picks(expected)
    with open(os.path.join(HERE, "expected.json"), "w") as f:
        json.dump(expected, f, indent=1, sort_keys=True)
        f.write("\n")
    shutil.rmtree(work)
    print(f"{len(by_key)} requests, {len(sets)} distinct design sets")


if __name__ == "__main__":
    main()

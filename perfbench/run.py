#!/usr/bin/env python3
"""psaflow's benchmark: one command, three workloads, checked outputs.

    python3 perfbench/run.py --workload warm_serve --seed 7 --seconds 30 \
        --trace 0

Run from the repository root. The first run builds psaflowc, psaflowd,
psaflow-router and perfbench-probe from source into $CARGO_TARGET_DIR
(default .bench_build). The last line of stdout is the result:
{"correct", "attempted", "failed", "metrics"}; the line before it holds the
run's metadata (seed, host, build, tail percentile). See README.md.
"""
import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import layers  # noqa: E402
import oplist  # noqa: E402
import workloads  # noqa: E402

ROOT = os.path.dirname(HERE)
TARGETS = ["psaflowc", "psaflowd", "psaflow-router", "perfbench-probe"]


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build():
    """Configure (once) and build the benchmarked programs; log to a file."""
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "perfbench-build.log")
    with open(log_path, "w") as log:
        steps = []
        if not any(os.path.exists(os.path.join(out, name))
                   for name in ("build.ninja", "Makefile")):
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            steps.append(["cmake", "-S", HERE, "-B", out,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + generator)
        steps.append(["cmake", "--build", out, "-j", str(os.cpu_count()),
                      "--target"] + TARGETS)
        for argv in steps:
            if subprocess.call(argv, stdout=log, stderr=subprocess.STDOUT,
                               stdin=subprocess.DEVNULL) != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                raise SystemExit(f"perfbench: build failed ({log_path})")
    return out


def host_metadata(bin_dir):
    cpu = "unknown"
    with open("/proc/cpuinfo") as f:
        match = re.search(r"^model name\s*:\s*(.+)$", f.read(), re.M)
        if match:
            cpu = match.group(1).strip()
    cache = {}
    with open(os.path.join(bin_dir, "CMakeCache.txt")) as f:
        for line in f:
            match = re.match(r"^(CMAKE_BUILD_TYPE|CMAKE_CXX_COMPILER):\w+=(.*)$",
                             line)
            if match:
                cache[match.group(1)] = match.group(2)
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = compiler
    return {"nproc": os.cpu_count(), "cpu": cpu, "compiler": version,
            "build_type": cache.get("CMAKE_BUILD_TYPE", ""),
            "commit": source_revision(), "python": platform.python_version()}


def source_revision():
    """The git commit when there is one, else a digest of the sources."""
    try:
        commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                capture_output=True, text=True)
        if commit.returncode == 0:
            return commit.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha256()
    for top in ("src", "tools"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.ROUND))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # Unwind on SIGTERM too, so every process the run started is stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    bin_dir = build()
    with open(os.path.join(HERE, "expected.json")) as f:
        expected = json.load(f)
    work = os.path.join(ROOT, ".bench_work",
                        f"{args.workload}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    bench = workloads.Bench(bin_dir, work, expected)
    rounds, ops_per_round = workloads.plan(args.workload, args.seconds)
    try:
        if args.trace:
            result, meta = layers.traced_run(bench, args.workload, args.seed,
                                             ops_per_round)
        else:
            results = [workloads.run_round(bench, args.workload, r, ops, False)
                       for r, ops in enumerate(oplist.make_ops(
                           args.workload, args.seed, rounds, ops_per_round))]
            result, meta = layers.end_to_end(results)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass  # another run's work directory is still there

    meta.update({"workload": args.workload, "seed": args.seed,
                 "seconds": args.seconds, "trace": args.trace,
                 "rounds": 2 if args.trace else rounds,
                 "ops_per_round": ops_per_round,
                 "connections": workloads.CONNECTIONS[args.workload],
                 "psaflow_env_ignored": bench.env_dropped,
                 "host": host_metadata(bin_dir)})
    print(json.dumps({"meta": meta}, sort_keys=True))
    print(json.dumps(result))
    # A wrong design fails the run; the result above says how many.
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

"""The three workloads. A run is at least MIN_ROUNDS rounds; each round
sets up a fresh system under test, sends a fixed op list closed-loop, and
tears the system down. Outputs are checked against expected.json after
the timed phase, outside the timing.
"""
import hashlib
import json
import math
import os
import shutil
import subprocess
import threading
import time

import oplist
import procs
import wire

MIN_ROUNDS = 3
# Ops per second of --seconds. A round serves a fixed number of ops, so a
# daemon that slows as it ages is compared at equal age; the rates make a
# run last about --seconds on a 4-core x86 host.
OPS_PER_SECOND = {"cold_compile": 8, "warm_serve": 100, "fleet_mixed": 120}
CONNECTIONS = {"cold_compile": 1, "warm_serve": 2, "fleet_mixed": 4}
OVERLOAD_RETRIES = 8
PINGS = 40  # net.ping_rtt_ms is their median


def plan(workload, seconds):
    """(rounds, ops per round) for a run of about `seconds` seconds: whole
    blocks of the workload's key mix, in MIN_ROUNDS rounds so set-up is
    measured several times."""
    block = oplist.block_size(workload)
    total = OPS_PER_SECOND[workload] * seconds
    blocks = max(1, round(total / MIN_ROUNDS / block))
    return MIN_ROUNDS, blocks * block


def request_key(op):
    return f"{op['app']}/{op['mode']}"


class Bench:
    """Paths and expectations shared by every round of one run."""

    def __init__(self, bin_dir, work_dir, expected):
        self.psaflowc = os.path.join(bin_dir, "psaflow_tools", "psaflowc")
        self.psaflowd = os.path.join(bin_dir, "psaflow_tools", "psaflowd")
        self.router = os.path.join(bin_dir, "psaflow_tools", "psaflow-router")
        self.probe = os.path.join(bin_dir, "perfbench-probe")
        self.work = work_dir
        check_paper_picks(expected)
        self.expected = expected
        # No PSAFLOW_* setting of the caller's reaches psaflow: every
        # process under test runs with the shipped defaults.
        self.env = {k: v for k, v in os.environ.items()
                    if not k.startswith("PSAFLOW_")}
        self.env_dropped = sorted(set(os.environ) - set(self.env))
        self.frames = {}  # one response frame per request key, for the probe

    def fresh_dir(self, *parts):
        path = os.path.join(self.work, *parts)
        shutil.rmtree(path, ignore_errors=True)
        os.makedirs(path)
        return path


# ---------------------------------------------------------------- checking

def digest_dir(path):
    """sha256 of every file in an output directory, and the design bytes
    (every file but the summary CSV)."""
    files, design_bytes = {}, 0
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as f:
            data = f.read()
        files[name] = hashlib.sha256(data).hexdigest()
        if not name.endswith("-summary.csv"):
            design_bytes += len(data)
    return files, design_bytes


def designs_from_csv(out_dir):
    for name in os.listdir(out_dir):
        if name.endswith("-summary.csv"):
            with open(os.path.join(out_dir, name)) as f:
                rows = [line.rstrip("\n").split(",") for line in f][1:]
            return [[r[0], r[1], r[2], r[-1]] for r in rows]
    return None


def check_paper_picks(expected):
    """The informed picks at X = 4 must be the paper's (Fig. 5)."""
    for app, target in expected["paper_picks_x4"].items():
        key = request_key({"app": app, "mode": "informed"})
        got = {d[1] for d in
               expected["design_sets"][expected["requests"][key]]["designs"]}
        if got != {target}:
            raise SystemExit(f"{app} informed at X=4 picks {sorted(got)}, "
                             f"the paper picks {target}")


def check_op(bench, rec):
    """True when the op's designs and files are exactly the expected ones."""
    if not rec["ok"]:
        return False
    want = bench.expected["design_sets"][
        bench.expected["requests"][request_key(rec["op"])]]
    try:
        files, rec["design_bytes"] = digest_dir(rec["out"])
    except OSError:
        return False
    designs = rec.get("designs")
    if designs is None:
        designs = designs_from_csv(rec["out"])
    return designs == want["designs"] and files == want["files"]


# ------------------------------------------------------------- cold_compile

def _psaflowc(bench, op, out_dir, trace_file=None):
    argv = [bench.psaflowc, "--app", op["app"], "--mode", op["mode"],
            "--jobs", "1", "--out", out_dir]
    if trace_file:
        argv += ["--trace-out", trace_file]
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL, env=bench.env)
    _, status, usage = os.wait4(proc.pid, 0)
    latency = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"op": op, "out": out_dir, "ok": proc.returncode == 0,
            "lat": latency if proc.returncode == 0 else math.inf,
            "start": start, "rss_mb": usage.ru_maxrss / 1024.0,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "trace_file": trace_file}


def round_cold(bench, index, ops, traced):
    t0 = time.perf_counter()
    prime = bench.fresh_dir(f"r{index}", "prime")
    for n, (app, mode) in enumerate(oplist.KEYS):
        rec = _psaflowc(bench, {"app": app, "mode": mode},
                        os.path.join(prime, str(n)))
        if not rec["ok"]:
            raise RuntimeError(f"priming psaflowc failed on {app}/{mode}")
    setup_s = time.perf_counter() - t0

    out_root = bench.fresh_dir(f"r{index}", "out")
    trace_root = bench.fresh_dir(f"r{index}", "trace") if traced else None
    driver0 = os.times()
    start = time.perf_counter()
    records = []
    for i, op in enumerate(ops):
        trace_file = os.path.join(trace_root, f"{i}.json") if traced else None
        records.append(_psaflowc(bench, op, os.path.join(out_root, str(i)),
                                 trace_file))
    timed_s = time.perf_counter() - start
    driver1 = os.times()
    for rec in records:
        if traced and rec["ok"]:
            with open(rec["trace_file"]) as f:
                doc = json.load(f)
            rec["spans"] = doc["spans"]
            rec["counters"] = doc["counters"]
    return {"setup_s": setup_s, "timed_s": timed_s, "records": records,
            "peak_rss_mb": max(r["rss_mb"] for r in records),
            "sut_cpu_s": sum(r["cpu_s"] for r in records),
            "driver_cpu_s": (driver1.user - driver0.user) +
                            (driver1.system - driver0.system)}


# ---------------------------------------------------------------- serving

def _serve_one(endpoint, op, out_dir, traced, trace_id):
    doc = {"schema_version": 1, "type": "compile", "app": op["app"],
           "mode": op["mode"], "out": out_dir}
    if traced:
        doc["trace"] = {"trace_id": f"{trace_id:016x}", "parent_span": 1}
    rec = {"op": op, "out": out_dir, "ok": False, "retries": 0,
           "refused": False}
    start = time.perf_counter()
    rec["start"] = start
    try:
        while True:
            response, raw = wire.call(endpoint, doc)
            if (not response.get("ok") and
                    response.get("error_kind") == "overloaded" and
                    rec["retries"] < OVERLOAD_RETRIES):
                rec["retries"] += 1
                time.sleep(max(1, response.get("retry_after_ms", 10)) / 1e3)
                continue
            break
    except (OSError, ValueError) as exc:
        rec["error"] = str(exc)
        rec["lat"] = math.inf
        return rec
    rec["lat"] = time.perf_counter() - start
    rec["ok"] = bool(response.get("ok"))
    if not rec["ok"]:
        rec["lat"] = math.inf
        rec["refused"] = response.get("error_kind") == "overloaded"
        rec["error"] = response.get("error", "")
        return rec
    rec["raw"] = raw
    rec["wall_us"] = response.get("wall_us", 0)
    rec["counters"] = response.get("counters", {})
    rec["designs"] = [[d["name"], d["target"], d["device"], d["file"]]
                      for d in response.get("designs", [])]
    rec["spans"] = response.get("trace", {}).get("spans", []) if traced else []
    return rec


def serve_ops(endpoint, ops, out_root, connections, traced):
    """Closed loop: each connection sends its share of the ops in order,
    one fresh connection per request, and waits for every reply."""
    records = [None] * len(ops)
    indices = oplist.partition(list(range(len(ops))), connections)

    def caller(mine):
        for i in mine:
            records[i] = _serve_one(endpoint, ops[i],
                                    os.path.join(out_root, str(i)), traced,
                                    trace_id=i + 1)

    threads = [threading.Thread(target=caller, args=(mine,))
               for mine in indices]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return records


def prime(endpoint, prime_dir):
    for n, (app, mode) in enumerate(oplist.KEYS):
        rec = _serve_one(endpoint, {"app": app, "mode": mode}, os.path.join(prime_dir, str(n)),
                         traced=False, trace_id=0)
        if not rec["ok"]:
            raise RuntimeError(f"priming failed on {app}/{mode}: "
                               f"{rec.get('error')}")


def ping_rtt_ms(endpoint):
    samples = []
    for _ in range(PINGS):
        start = time.perf_counter()
        wire.call(endpoint, {"type": "ping"})
        samples.append((time.perf_counter() - start) * 1e3)
    return oplist.median(samples)


def _timed_serve(bench, index, endpoint, suts, ops, connections, traced):
    out_root = bench.fresh_dir(f"r{index}", "out")
    cpu0 = sum(procs.cpu_seconds(p.pid) for p in suts)
    driver0 = os.times()
    start = time.perf_counter()
    records = serve_ops(endpoint, ops, out_root, connections, traced)
    timed_s = time.perf_counter() - start
    driver1 = os.times()
    cpu1 = sum(procs.cpu_seconds(p.pid) for p in suts)
    for rec in records:
        if rec["ok"]:
            key = request_key(rec["op"])
            bench.frames.setdefault(key, rec["raw"])
    return {"timed_s": timed_s, "records": records,
            "peak_rss_mb": sum(procs.vm_hwm_mb(p.pid) for p in suts),
            "sut_cpu_s": cpu1 - cpu0,
            "driver_cpu_s": (driver1.user - driver0.user) +
                            (driver1.system - driver0.system)}


def round_warm(bench, index, ops, traced):
    t0 = time.perf_counter()
    root = bench.fresh_dir(f"r{index}")
    with procs.Procs(root) as owned:
        daemon = owned.spawn("psaflowd", [
            bench.psaflowd, "--listen", "127.0.0.1:0", "--workers", "2",
            "--cache-dir", os.path.join(root, "cache"),
            "--out", os.path.join(root, "designs")], env=bench.env)
        endpoint = f"127.0.0.1:{procs.wait_port(daemon)}"
        procs.wait_ping(endpoint)
        prime(endpoint, os.path.join(root, "prime"))
        setup_s = time.perf_counter() - t0
        result = _timed_serve(bench, index, endpoint, [daemon], ops,
                              CONNECTIONS["warm_serve"], traced)
        result["setup_s"] = setup_s
        if traced:
            result["ping_ms"] = ping_rtt_ms(endpoint)
    return result


def round_fleet(bench, index, ops, traced):
    t0 = time.perf_counter()
    root = bench.fresh_dir(f"r{index}")
    with procs.Procs(root) as owned:
        shards = []
        upstream = []
        for name in ("s0", "s1"):
            shard = owned.spawn(name, [
                bench.psaflowd, "--listen", "127.0.0.1:0",
                "--shard-name", name, "--workers", "1",
                "--cache-dir", os.path.join(root, "cache-" + name),
                "--out", os.path.join(root, "designs-" + name)] + upstream,
                env=bench.env)
            shard.endpoint = f"127.0.0.1:{procs.wait_port(shard)}"
            # As in scripts/cluster_smoke.sh: s1 reads through to s0's CAS.
            upstream = ["--cas-upstream", shard.endpoint]
            shards.append(shard)
        router = owned.spawn("router", [
            bench.router, "--listen", "127.0.0.1:0",
            "--shard", "s0=" + shards[0].endpoint,
            "--shard", "s1=" + shards[1].endpoint], env=bench.env)
        endpoint = f"127.0.0.1:{procs.wait_port(router)}"
        for shard in shards:
            procs.wait_ping(shard.endpoint)
        procs.wait_ping(endpoint)
        prime(endpoint, os.path.join(root, "prime"))
        setup_s = time.perf_counter() - t0
        before, _ = wire.call(endpoint, {"type": "stats"})
        result = _timed_serve(bench, index, endpoint, shards + [router], ops,
                              CONNECTIONS["fleet_mixed"], traced)
        result["setup_s"] = setup_s
        after, _ = wire.call(endpoint, {"type": "stats"})
        result["router_retries"] = after["retries"] - before["retries"]
        if traced:
            cluster, _ = wire.call(endpoint, {"type": "cluster_stats"})
            result["cluster_stats"] = cluster
            result["ping_ms"] = ping_rtt_ms(endpoint)
    return result


ROUND = {"cold_compile": round_cold, "warm_serve": round_warm,
         "fleet_mixed": round_fleet}


def run_round(bench, workload, index, ops, traced):
    """One round, then its outputs checked; the round's files are removed.

    The host's speed (a fixed CPU loop, before the round) and CPU steal
    (during it) are recorded so that a round on a slowed host shows.
    """
    calibration_ms = procs.host_calibration_ms()
    steal0, total0 = procs.cpu_ticks()
    result = ROUND[workload](bench, index, ops, traced)
    steal1, total1 = procs.cpu_ticks()
    result["host_calibration_ms"] = calibration_ms
    result["host_steal_pct"] = 100.0 * (steal1 - steal0) / max(
        1, total1 - total0)
    for rec in result["records"]:
        rec["correct"] = check_op(bench, rec)
        rec.pop("raw", None)
    shutil.rmtree(os.path.join(bench.work, f"r{index}", "out"),
                  ignore_errors=True)
    return result


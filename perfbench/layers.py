"""Metrics: the five end-to-end metrics of a timed run, and the per-layer
metrics of the traced run.

Layers are measured from outside the program: spans and counters psaflow
already returns (psaflowc --trace-out, the "trace" and "counters" members
of wire responses, router stats), and perfbench-probe, which times calls
into each layer's public functions.
"""
import json
import math
import os
import subprocess

import oplist
import workloads

# The task ids of both standard flows (psaflowc --export-flow).
FLOW_TASKS = (
    "arithmetic-intensity-analysis", "arria10-unroll-until-overmap-dse",
    "data-in-out-analysis", "employ-hip-pinned-memory", "employ-sp-math-fns",
    "employ-sp-numeric-literals", "employ-specialised-math-fns",
    "generate-hip-design", "generate-oneapi-design",
    "gtx-1080-ti-blocksize-dse", "hotspot-loop-extraction",
    "identify-hotspot-loops", "introduce-shared-mem-buf",
    "loop-dependence-analysis", "loop-trip-count-analysis",
    "multi-thread-parallel-loops", "omp-num-threads-dse", "pointer-analysis",
    "remove-array-dependency", "rtx-2080-ti-blocksize-dse",
    "stratix10-unroll-until-overmap-dse", "unroll-fixed-loops",
    "zero-copy-data-transfer")

END_TO_END = (
    ("throughput_rps", "1/s", "higher"),
    ("latency_ms.p50", "ms", "lower"),
    ("latency_ms.tail", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
)

# (name, unit, better). Every traced run reports all of them; a layer the
# workload does not run through reads 0 (README "Per-layer metrics").
PER_LAYER = (
    ("frontend.parse_ms", "ms", "lower"),
    ("sema.check_ms", "ms", "lower"),
    ("ast.print_ms", "ms", "lower"),
    ("ast.clone_ms", "ms", "lower"),
    ("interp.lower_ms", "ms", "lower"),
    ("interp.vm_ms", "ms", "lower"),
    ("interp.steps", "count", "lower"),
    ("interp.ns_per_step", "ns", "lower"),
    ("interp.runs_per_op", "count", "lower"),
    ("analysis.hotspot_ms", "ms", "lower"),
    ("analysis.characterize_ms", "ms", "lower"),
    ("profile_cache.misses_per_op", "count", "lower"),
    ("profile_cache.hit_ratio", "ratio", "higher"),
    ("profile_cache.disk_hits_per_op", "count", "higher"),
) + tuple((f"flow.task.{task}.self_ms", "ms", "lower")
          for task in FLOW_TASKS) + (
    ("flow.finalize_ms", "ms", "lower"),
    ("flow.overhead_ms", "ms", "lower"),
    ("dse.self_ms", "ms", "lower"),
    ("codegen.emit_ms", "ms", "lower"),
    ("codegen.bytes_per_op", "bytes", "lower"),
    ("cas.get_ms", "ms", "lower"),
    ("cas.put_ms", "ms", "lower"),
    ("cas.hits_per_op", "count", "higher"),
    ("cas.writes_per_op", "count", "lower"),
    ("serve.execute_ms", "ms", "lower"),
    ("serve.outside_ms", "ms", "lower"),
    ("serve.queue_wait_ms.p50", "ms", "lower"),
    ("serve.queue_wait_ms.tail", "ms", "lower"),
    ("serve.latency_drift", "ratio", "lower"),
    ("serve.overload_rejects", "count", "lower"),
    ("json.parse_us", "us", "lower"),
    ("json.dump_us", "us", "lower"),
    ("net.ping_rtt_ms", "ms", "lower"),
    ("cluster.relay_ms", "ms", "lower"),
    ("cluster.shard_skew", "ratio", "lower"),
    ("cluster.retries", "count", "lower"),
    ("cluster.remote_cas.hit_ratio", "ratio", "higher"),
    ("proc.cpu_ms_per_op", "ms", "lower"),
    ("driver.cpu_ms_per_op", "ms", "lower"),
) + tuple((f"app.{app}.{mode}.latency_ms", "ms", "lower")
          for app, mode in oplist.KEYS) + (
    ("trace.overhead_pct", "%", "lower"),
    ("trace.coverage", "ratio", "higher"),
)

# A failed op lies beyond any latency limit; JSON has no infinity.
FAILED_MS = 1e9


def _metrics(table, values):
    return {name: {"value": float(values[name]), "unit": unit}
            for name, unit, _ in table}


def _summary(records):
    failed = sum(not rec["correct"] for rec in records)
    return {"correct": failed == 0, "attempted": len(records),
            "failed": failed}


def end_to_end(rounds):
    records = [rec for rnd in rounds for rec in rnd["records"]]
    latencies = [rec["lat"] * 1e3 if rec["correct"] else math.inf
                 for rec in records]
    completed = sum(rec["correct"] for rec in records)
    tail_ms, tail_pct, samples = oplist.tail(latencies)
    values = {
        "throughput_rps": completed / sum(r["timed_s"] for r in rounds),
        "latency_ms.p50": oplist.finite_or(oplist.median(latencies),
                                           FAILED_MS),
        "latency_ms.tail": oplist.finite_or(tail_ms, FAILED_MS),
        "peak_rss_mb": oplist.median([r["peak_rss_mb"] for r in rounds]),
        "setup_s": oplist.median([r["setup_s"] for r in rounds]),
    }
    result = dict(_summary(records), metrics=_metrics(END_TO_END, values))
    meta = {"tail_percentile": tail_pct, "tail_samples": samples,
            "tail_beyond": oplist.TAIL_BEYOND,
            "refused": sum(rec.get("refused", False) for rec in records),
            "overload_retries": sum(rec.get("retries", 0) for rec in records),
            "setup_s_rounds": [r["setup_s"] for r in rounds],
            "host_calibration_ms_rounds": [
                r["host_calibration_ms"] for r in rounds],
            "host_steal_pct_rounds": [r["host_steal_pct"] for r in rounds],
            "throughput_rps_rounds": [
                sum(rec["correct"] for rec in r["records"]) / r["timed_s"]
                for r in rounds]}
    return result, meta


# ------------------------------------------------------------------ spans

def _union_us(intervals):
    total, end = 0.0, -math.inf
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def self_times(spans):
    """Each span's duration minus the part of it its children cover."""
    children = {}
    for span in spans:
        children.setdefault(span["parent"], []).append(span)
    out = []
    for span in spans:
        lo = span["start_us"]
        hi = lo + span["duration_us"]
        covered = _union_us(
            (max(lo, c["start_us"]), min(hi, c["start_us"] + c["duration_us"]))
            for c in children.get(span["id"], ())
            if c["start_us"] < hi and c["start_us"] + c["duration_us"] > lo)
        out.append((span, max(0.0, span["duration_us"] - covered)))
    return out


def op_layers(rec):
    """Per-op layer times (ms) and counts from the op's spans/counters."""
    spans = rec.get("spans", [])
    ids = {span["id"] for span in spans}
    layers = {"tasks": {}, "finalize": 0.0, "dse": 0.0,
              "hotspot": 0.0, "characterize": 0.0, "flow_self": 0.0,
              "queue_wait": None, "relay": 0.0, "covered": 0.0}
    for span, self_us in self_times(spans):
        name, category = span["name"], span["category"]
        ms = self_us / 1e3
        if name.startswith("task:"):
            task = name[len("task:"):]
            layers["tasks"][task] = layers["tasks"].get(task, 0.0) + ms
        elif name.startswith("finalize:"):
            layers["finalize"] += ms
        elif category == "dse":
            layers["dse"] += ms
        # Both wrap profile-cache lookups, so on a hit they time the hit
        # path, not the VM.
        if name.startswith("detect_hotspots"):
            layers["hotspot"] += span["duration_us"] / 1e3
        elif name.startswith("characterize:"):
            layers["characterize"] += span["duration_us"] / 1e3
        if name.startswith(("run_flow:", "path:")):
            layers["flow_self"] += ms
        if name == "serve:queue-wait":
            layers["queue_wait"] = span["duration_us"] / 1e3
        if name == "router:relay":
            layers["relay"] += ms
        if span["parent"] not in ids:
            layers["covered"] += span["duration_us"] / 1e3
    return layers


def _mean(values):
    values = list(values)
    return sum(values) / len(values) if values else 0.0


# ------------------------------------------------------------------ probe

def run_probe(bench, ops):
    frames = os.path.join(bench.work, "frames.jsonl")
    with open(frames, "wb") as f:
        for key in sorted(bench.frames):
            f.write(bench.frames[key] + b"\n")
    apps = sorted({op["app"] for op in ops})
    out = subprocess.run(
        [bench.probe, "--apps", ",".join(apps),
         "--frames", frames, "--cas-dir", os.path.join(bench.work, "probe-cas")],
        capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


# ----------------------------------------------------------- traced run

def traced_run(bench, workload, seed, ops_per_round):
    """An untraced and a traced pass over the same op list, then probes."""
    ops = oplist.make_round(workload, seed, 0, ops_per_round)
    plain = workloads.run_round(bench, workload, 0, ops, traced=False)
    traced = workloads.run_round(bench, workload, 1, ops, traced=True)
    probe = run_probe(bench, ops)
    values = per_layer(workload, ops, plain, traced, probe)
    records = plain["records"] + traced["records"]
    result = dict(_summary(records), metrics=_metrics(PER_LAYER, values))
    return result, {"probe": probe,
                    "host_calibration_ms_rounds": [
                        r["host_calibration_ms"] for r in (plain, traced)],
                    "host_steal_pct_rounds": [
                        r["host_steal_pct"] for r in (plain, traced)]}


def per_layer(workload, ops, plain, traced, probe):
    ok = [rec for rec in traced["records"] if rec["correct"]]
    n = max(1, len(ok))
    per_op = [op_layers(rec) for rec in ok]
    v = {}

    def by_mix(field):
        return _mean(probe["apps"][op["app"]][field] for op in ops)

    v["frontend.parse_ms"] = by_mix("parse_ms")
    v["sema.check_ms"] = by_mix("check_ms")
    v["ast.print_ms"] = by_mix("print_ms")
    v["ast.clone_ms"] = by_mix("clone_ms")
    v["interp.lower_ms"] = by_mix("lower_ms")
    v["interp.ns_per_step"] = 1e6 * by_mix("vm_ms") / by_mix("steps")
    v["codegen.emit_ms"] = by_mix("emit_ms")
    v["cas.get_ms"] = probe["cas_get_ms"]
    v["cas.put_ms"] = probe["cas_put_ms"]
    v["json.parse_us"] = probe["json_parse_us"]
    v["json.dump_us"] = probe["json_dump_us"]

    def counter(name):
        return sum(rec["counters"].get(name, 0) for rec in ok) / n

    # VM time per op: the op's exact step count at the probe's measured
    # run_function speed for its app; 0 when every run was a cache hit.
    v["interp.vm_ms"] = _mean(
        rec["counters"].get("interp.steps", 0) *
        probe["apps"][rec["op"]["app"]]["vm_ms"] /
        probe["apps"][rec["op"]["app"]]["steps"] for rec in ok)
    v["interp.steps"] = counter("interp.steps")
    v["interp.runs_per_op"] = counter("interp.runs")
    v["analysis.hotspot_ms"] = _mean(layer["hotspot"] for layer in per_op)
    v["analysis.characterize_ms"] = _mean(
        layer["characterize"] for layer in per_op)
    hits, misses = counter("profile_cache.hits"), counter(
        "profile_cache.misses")
    v["profile_cache.misses_per_op"] = misses
    v["profile_cache.hit_ratio"] = hits / (hits + misses) if hits + misses \
        else 0.0
    # The disk CAS holds profile and design-artifact payloads only.
    v["profile_cache.disk_hits_per_op"] = counter("cas.hits") - counter(
        "artifact_cache.hits")
    for task in FLOW_TASKS:
        v[f"flow.task.{task}.self_ms"] = _mean(
            layer["tasks"].get(task, 0.0) for layer in per_op)
    v["flow.finalize_ms"] = _mean(layer["finalize"] for layer in per_op)
    v["flow.overhead_ms"] = _mean(layer["flow_self"] for layer in per_op)
    v["dse.self_ms"] = _mean(layer["dse"] for layer in per_op)
    v["codegen.bytes_per_op"] = _mean(rec["design_bytes"] for rec in ok)
    v["cas.hits_per_op"] = counter("cas.hits")
    v["cas.writes_per_op"] = counter("cas.writes")

    serving = workload != "cold_compile"
    plain_ok = [rec for rec in plain["records"] if rec["correct"]]
    if serving:
        v["serve.execute_ms"] = oplist.median(
            [rec["wall_us"] / 1e3 for rec in plain_ok])
        v["serve.outside_ms"] = oplist.median(
            [rec["lat"] * 1e3 - rec["wall_us"] / 1e3 for rec in plain_ok])
        waits = [layer["queue_wait"] for layer in per_op
                 if layer["queue_wait"] is not None]
        v["serve.queue_wait_ms.p50"] = oplist.median(waits)
        v["serve.queue_wait_ms.tail"] = oplist.tail(waits)[0]
        v["net.ping_rtt_ms"] = traced["ping_ms"]
        ordered = sorted(plain_ok, key=lambda rec: rec["start"])
        tenth = max(1, len(ordered) // 10)
        v["serve.latency_drift"] = (
            oplist.median([rec["lat"] for rec in ordered[-tenth:]]) /
            oplist.median([rec["lat"] for rec in ordered[:tenth]]))
    else:
        for name in ("serve.execute_ms", "serve.outside_ms",
                     "serve.queue_wait_ms.p50", "serve.queue_wait_ms.tail",
                     "serve.latency_drift", "net.ping_rtt_ms"):
            v[name] = 0.0
    v["serve.overload_rejects"] = sum(
        rec.get("retries", 0) + rec.get("refused", False)
        for rec in plain["records"] + traced["records"])

    if workload == "fleet_mixed":
        v["cluster.relay_ms"] = _mean(layer["relay"] for layer in per_op)
        shards = [s.get("stats", {}) for s in
                  traced["cluster_stats"].get("shards", [])]
        compiles = [s.get("requests", {}).get("completed", 0)
                    for s in shards]
        v["cluster.shard_skew"] = max(compiles) / _mean(compiles)
        v["cluster.retries"] = plain["router_retries"] + traced[
            "router_retries"]
        remote_hits = sum(s.get("counters", {}).get("cas.remote_hits", 0)
                          for s in shards)
        remote_misses = sum(
            s.get("counters", {}).get("cas.remote_misses", 0) for s in shards)
        v["cluster.remote_cas.hit_ratio"] = (
            remote_hits / (remote_hits + remote_misses)
            if remote_hits + remote_misses else 0.0)
    else:
        for name in ("cluster.relay_ms", "cluster.shard_skew",
                     "cluster.retries", "cluster.remote_cas.hit_ratio"):
            v[name] = 0.0

    v["proc.cpu_ms_per_op"] = 1e3 * plain["sut_cpu_s"] / max(1, len(plain_ok))
    v["driver.cpu_ms_per_op"] = 1e3 * plain["driver_cpu_s"] / max(
        1, len(plain_ok))
    for app, mode in oplist.KEYS:
        lats = [rec["lat"] * 1e3 for rec in plain_ok
                if rec["op"]["app"] == app and rec["op"]["mode"] == mode]
        v[f"app.{app}.{mode}.latency_ms"] = oplist.median(lats) if lats \
            else 0.0

    v["trace.overhead_pct"] = 100.0 * (
        _mean(rec["lat"] for rec in ok) /
        _mean(rec["lat"] for rec in plain_ok) - 1.0)
    v["trace.coverage"] = oplist.median(
        [layer["covered"] for layer in per_op]) / oplist.median(
        [rec["lat"] * 1e3 for rec in ok])
    return v

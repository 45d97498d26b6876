"""Seeded op lists and the order statistics the benchmark reports.

Everything here is a pure function of its arguments, so the unit tests in
test_perfbench.py can pin it down without building or running psaflow.
"""
import math
import random

APPS = ("adpredictor", "bezier", "kmeans", "nbody", "rushlarsen")
MODES = ("informed", "uninformed")
KEYS = tuple((app, mode) for app in APPS for mode in MODES)

# fleet_mixed: POPULAR_APP is drawn POPULAR_WEIGHT times as often as any
# other app, so it gets half the requests, and source affinity sends all
# of them to one shard.
POPULAR_APP = "bezier"
POPULAR_WEIGHT = len(APPS) - 1

# latency_ms.tail: the samples that must lie beyond the reported percentile.
TAIL_BEYOND = 10


def _round_rng(workload, seed, round_index):
    return random.Random(f"{workload}:{seed}:{round_index}")


def _block(workload):
    """The keys of one block; whole blocks fix a round's mix."""
    if workload in ("cold_compile", "warm_serve"):
        return list(KEYS)
    if workload != "fleet_mixed":
        raise ValueError(f"unknown workload {workload!r}")
    return [(app, mode) for app, mode in KEYS
            for _ in range(POPULAR_WEIGHT if app == POPULAR_APP else 1)]


def block_size(workload):
    return len(_block(workload))


def make_round(workload, seed, round_index, ops):
    """The op list of one round: dicts with app and mode.

    Ops are drawn as whole shuffled blocks, so every seed sends the same
    mix -- and with it the same cost -- and only the order is drawn.
    """
    rng = _round_rng(workload, seed, round_index)
    out = []
    while len(out) < ops:
        block = _block(workload)
        rng.shuffle(block)
        out.extend({"app": app, "mode": mode} for app, mode in block)
    return out[:ops]


def make_ops(workload, seed, rounds, ops_per_round):
    """Every round's op list, generated before any timing starts."""
    return [make_round(workload, seed, r, ops_per_round)
            for r in range(rounds)]


def partition(ops, connections):
    """Connection c sends ops c, c+k, c+2k, ... (k = connections) in order.

    The op list is fixed before it is split, so the set of ops a run sends
    does not depend on how many connections send them.
    """
    return [ops[c::connections] for c in range(connections)]


def median(values):
    values = sorted(values)
    n = len(values)
    if n == 0:
        raise ValueError("median of no values")
    mid = n // 2
    return values[mid] if n % 2 else 0.5 * (values[mid - 1] + values[mid])


def tail(latencies):
    """The highest percentile with at least TAIL_BEYOND samples above it.

    Returns (value, percentile, samples). With n samples that is the
    (n - TAIL_BEYOND)-th smallest, i.e. percentile
    100 * (n - TAIL_BEYOND) / n. A failed op is passed as math.inf, so it
    always lies beyond the tail. Needs more than TAIL_BEYOND samples.
    """
    n = len(latencies)
    if n <= TAIL_BEYOND:
        raise ValueError(
            f"tail needs more than {TAIL_BEYOND} samples, got {n}")
    ordered = sorted(latencies)
    return (ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n)


def finite_or(value, fallback):
    return value if math.isfinite(value) else fallback

"""Unit tests of the benchmark's own logic; no psaflow build needed.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""
import collections
import json
import math
import os
import unittest

import layers
import oplist
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("cold_compile", "warm_serve", "fleet_mixed")


def composition(ops):
    return collections.Counter((op["app"], op["mode"]) for op in ops)


class OpListTest(unittest.TestCase):
    def test_same_seed_same_ops(self):
        for workload in WORKLOADS:
            self.assertEqual(oplist.make_ops(workload, 7, 3, 240),
                             oplist.make_ops(workload, 7, 3, 240))

    def test_other_seed_other_ops(self):
        for workload in WORKLOADS:
            self.assertNotEqual(oplist.make_ops(workload, 7, 3, 240),
                                oplist.make_ops(workload, 8, 3, 240))

    def test_rounds_differ(self):
        first, second = oplist.make_ops("warm_serve", 7, 2, 100)
        self.assertNotEqual(first, second)

    def test_composition_independent_of_connections(self):
        for workload in WORKLOADS:
            ops = oplist.make_round(workload, 3, 0, 240)
            for connections in range(1, 5):
                shares = oplist.partition(ops, connections)
                self.assertEqual(len(shares), connections)
                sent = [op for share in shares for op in share]
                self.assertEqual(composition(sent), composition(ops))

    def test_mix_independent_of_seed(self):
        # Whole blocks fix the key mix; the seed only orders it.
        for workload in WORKLOADS:
            mixes = {frozenset(composition(
                oplist.make_round(workload, seed, 0, 160)).items())
                for seed in range(5)}
            self.assertEqual(len(mixes), 1)

    def test_cold_and_warm_draw_every_key_evenly(self):
        ops = oplist.make_round("cold_compile", 1, 0, 50)
        counts = composition(ops)
        self.assertEqual(set(counts), set(oplist.KEYS))
        self.assertEqual(set(counts.values()), {5})

    def test_fleet_mix(self):
        ops = oplist.make_round("fleet_mixed", 5, 0, 16 * 30)
        apps = collections.Counter(op["app"] for op in ops)
        self.assertEqual(apps[oplist.POPULAR_APP], len(ops) // 2)
        modes = collections.Counter(op["mode"] for op in ops)
        self.assertEqual(set(modes.values()), {len(ops) // 2})

    def test_plan_is_whole_blocks(self):
        for workload in WORKLOADS:
            for seconds in range(1, 61):
                rounds, ops = workloads.plan(workload, seconds)
                self.assertEqual(rounds, workloads.MIN_ROUNDS)
                self.assertGreater(ops, 0)
                self.assertEqual(ops % oplist.block_size(workload), 0)

    def test_every_drawable_request_is_expected(self):
        with open(os.path.join(HERE, "expected.json")) as f:
            expected = json.load(f)
        workloads.check_paper_picks(expected)
        for workload in WORKLOADS:
            ops = oplist.make_ops(workload, 11,
                                  *workloads.plan(workload, 60))
            for op in (op for rnd in ops for op in rnd):
                self.assertIn(workloads.request_key(op),
                              expected["requests"])


class TailTest(unittest.TestCase):
    def test_ten_samples_beyond(self):
        values = list(range(1, 101))
        value, percentile, samples = oplist.tail(values)
        self.assertEqual(value, 90)
        self.assertEqual(percentile, 90.0)
        self.assertEqual(samples, 100)
        self.assertEqual(sum(v > value for v in values), 10)

    def test_highest_such_percentile(self):
        for n in (11, 57, 1000, 1234):
            values = [float(i) for i in range(n)]
            value, percentile, _ = oplist.tail(values)
            self.assertEqual(sum(v > value for v in values), 10)
            self.assertAlmostEqual(percentile, 100.0 * (n - 10) / n)

    def test_too_few_samples(self):
        with self.assertRaises(ValueError):
            oplist.tail(list(range(10)))

    def test_failures_lie_beyond(self):
        values = [1.0] * 100 + [math.inf] * 10
        self.assertEqual(oplist.tail(values)[0], 1.0)
        values.append(math.inf)
        self.assertEqual(oplist.tail(values)[0], math.inf)


class SpanTest(unittest.TestCase):
    def test_self_time_subtracts_covered_children(self):
        spans = [
            {"id": 1, "parent": 0, "name": "run_flow:x", "category": "flow",
             "start_us": 0, "duration_us": 100},
            {"id": 2, "parent": 1, "name": "task:a", "category": "task",
             "start_us": 10, "duration_us": 30},
            {"id": 3, "parent": 1, "name": "task:b", "category": "task",
             "start_us": 30, "duration_us": 20},  # overlaps task:a
            {"id": 4, "parent": 2, "name": "characterize:k",
             "category": "interp:vm", "start_us": 15, "duration_us": 10},
        ]
        got = {span["name"]: us for span, us in layers.self_times(spans)}
        self.assertEqual(got, {"run_flow:x": 60, "task:a": 20,
                               "task:b": 20, "characterize:k": 10})
        per_op = layers.op_layers({"spans": spans})
        self.assertEqual(per_op["covered"], 0.1)
        self.assertEqual(per_op["characterize"], 0.01)
        self.assertEqual(per_op["flow_self"], 0.06)


class ContractTest(unittest.TestCase):
    def test_benchmark_json_lists_every_metric(self):
        with open(os.path.join(os.path.dirname(HERE),
                               "BENCHMARK.json")) as f:
            spec = json.load(f)
        self.assertEqual([m["name"] for m in spec["end_to_end"]],
                         [name for name, _, _ in layers.END_TO_END])
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
            list(layers.PER_LAYER))
        self.assertEqual({w["name"] for w in spec["workloads"]},
                         set(WORKLOADS))


if __name__ == "__main__":
    unittest.main()

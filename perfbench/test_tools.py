"""Unit tests of the benchmark's Python helpers and of BENCHMARK.json
itself. Run from perfbench/: python3 -m unittest test_tools
(or python3 run.py --selftest, which also runs the C++ helper tests)."""

import json
import os
import re
import statistics
import unittest

import run
import steadiness

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


class SpreadTest(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        values = [10, 12, 11, 13, 9, 10.5, 11.5, 12.5, 9.5, 10]
        median, q1, q3, frac = steadiness.spread(values)
        expected_q1, _, expected_q3 = statistics.quantiles(values, n=4)
        self.assertEqual(median, statistics.median(values))
        self.assertEqual((q1, q3), (expected_q1, expected_q3))
        self.assertAlmostEqual(frac, (expected_q3 - expected_q1) / median)

    def test_zero_median_is_never_steady(self):
        self.assertEqual(steadiness.spread([0, 0, 0])[3], float("inf"))

    def test_verdict_thresholds(self):
        self.assertEqual(steadiness.verdict(0.03, 0.1), "steady")
        self.assertEqual(steadiness.verdict(0.05, 0.1), "within bound")
        self.assertEqual(steadiness.verdict(0.11, 0.1), "TOO NOISY")
        self.assertEqual(steadiness.verdict(0.9, 0.1, judged=False), "reported")


class OutputParsingTest(unittest.TestCase):
    OUT = ("perfbench workload=x seed=1\n"
           "exact-counts: engine.direct fetches=4 list_ops=9\n"
           "metric query_qps 10 1/s\n"
           '{"correct": true, "attempted": 3, "failed": 0, "metrics": {}}\n')

    def test_result_is_the_last_line(self):
        self.assertEqual(steadiness.parse_result(self.OUT)["attempted"], 3)
        self.assertIsNone(steadiness.parse_result("no result\n"))

    def test_tagged_lines(self):
        self.assertEqual(steadiness.tagged_lines(self.OUT, "exact-counts:"),
                         ["exact-counts: engine.direct fetches=4 list_ops=9"])


class SelectMetricsTest(unittest.TestCase):
    DECLARED = [{"name": "query_qps", "unit": "1/s", "better": "higher"},
                {"name": "setup_s", "unit": "s", "better": "lower"}]

    def test_keeps_declared_metrics_in_order(self):
        measured = {"setup_s": {"value": 0.5, "unit": "s"},
                    "failed_frac": {"value": 0, "unit": "1"},
                    "query_qps": {"value": 99.5, "unit": "1/s"}}
        selected = run.select_metrics(self.DECLARED, measured)
        self.assertEqual(list(selected), ["query_qps", "setup_s"])
        self.assertEqual(selected["query_qps"], {"value": 99.5, "unit": "1/s"})

    def test_missing_or_relabelled_metric_fails(self):
        with self.assertRaises(KeyError):
            run.select_metrics(self.DECLARED, {"query_qps": {"value": 1, "unit": "1/s"}})
        with self.assertRaises(KeyError):
            run.select_metrics(self.DECLARED, {
                "query_qps": {"value": 1, "unit": "qps"},
                "setup_s": {"value": 1, "unit": "s"}})


class BenchmarkJsonTest(unittest.TestCase):
    """BENCHMARK.json stays within the limits its consumers enforce."""

    @classmethod
    def setUpClass(cls):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            cls.bench = json.load(f)

    def test_keys(self):
        self.assertEqual(set(self.bench), {"command", "paths", "run_seconds",
                                           "workloads", "end_to_end", "per_layer"})
        for path in self.bench["paths"]:
            self.assertTrue(os.path.isdir(os.path.join(run.ROOT, path)))
        self.assertTrue(1 <= self.bench["run_seconds"] <= 60)

    def test_names_units_and_bounds(self):
        names = []
        for group in ("workloads", "end_to_end", "per_layer"):
            for entry in self.bench[group]:
                self.assertRegex(entry["name"], NAME)
                names.append(entry["name"])
                if group == "workloads":
                    self.assertEqual(set(entry), {"name", "why"})
                    self.assertLessEqual(len(entry["why"]), 200)
                    continue
                self.assertRegex(entry["unit"], UNIT)
                self.assertIn(entry["better"], ("higher", "lower"))
                if group == "end_to_end":
                    self.assertEqual(set(entry), {"name", "unit", "better", "bound"})
                    self.assertLessEqual(entry["bound"], 0.25)
                else:
                    self.assertEqual(set(entry), {"name", "unit", "better"})
        self.assertEqual(len(names), len(set(names)))

    def test_setup_time_has_the_largest_bound(self):
        bounds = {m["name"]: m for m in self.bench["end_to_end"]}
        setup = bounds["setup_s"]
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        self.assertEqual(setup["bound"], max(m["bound"] for m in bounds.values()))


if __name__ == "__main__":
    unittest.main()

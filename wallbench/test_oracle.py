"""The benchmark's own tests: the oracle against the paper, and wrong
answers counted as failed.

    python3 -m unittest discover -s wallbench -p 'test_*.py'
"""

from __future__ import annotations

import copy
import json
import os
import sys
import unittest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from oracle import Stack, continuous_cores, integer_cores  # noqa: E402


class DesignTableTest(unittest.TestCase):
    """DESIGN.md section 2: every headline the bisection can reach."""

    def cores(self, ceas, specs=(), budget=1.0):
        return integer_cores(ceas, 0.5, budget, Stack(list(specs)))

    def test_base(self):
        self.assertEqual(self.cores(32), 11)
        self.assertAlmostEqual(continuous_cores(32, 0.5, 1.0)[0], 11.03,
                               places=2)
        self.assertEqual(self.cores(256), 24)

    def test_cache_compression(self):
        self.assertEqual([self.cores(32, [f"CC={r}"])
                          for r in (1.3, 1.7, 2.0, 2.5, 3.0)],
                         [11, 12, 13, 14, 14])
        self.assertEqual(self.cores(256, ["CC=2"]), 30)

    def test_dram_cache(self):
        self.assertEqual([self.cores(32, [f"DRAM={d}"]) for d in (4, 8, 16)],
                         [16, 18, 21])
        self.assertEqual(self.cores(256, ["DRAM=8"]), 47)

    def test_stacked_cache(self):
        self.assertEqual([self.cores(32, [f"3D={d}"]) for d in (1, 8, 16)],
                         [14, 25, 32])

    def test_filtering_and_small_cores(self):
        self.assertEqual(self.cores(32, ["Fltr=0.4"]), 12)
        self.assertEqual(self.cores(32, ["Fltr=0.8"]), 16)
        self.assertAlmostEqual(
            continuous_cores(32, 0.5, 1.0, Stack(["SmCo=80"]))[0], 12.67,
            delta=0.01)

    def test_link_compression(self):
        self.assertEqual(self.cores(32, budget=2.0), 16)
        self.assertEqual(self.cores(32, ["LC=2"]), 16)
        self.assertEqual(self.cores(256, ["LC=2"]), 38)

    def test_small_lines_and_cc_lc(self):
        self.assertEqual(self.cores(32, ["SmCl=0.4"]), 16)
        self.assertEqual(self.cores(32, ["CC/LC=2"]), 18)

    def test_all_combined(self):
        specs = ["CC/LC=2", "DRAM=8", "3D", "SmCl=0.4"]
        cores = self.cores(256, specs)
        self.assertEqual(cores, 183)
        self.assertAlmostEqual(cores / 256, 0.715, places=3)


def solve_payload(request):
    cont, limited = continuous_cores(request["ceas"], request["alpha"],
                                     request["budget"],
                                     Stack(request["techniques"]))
    return {"solution": {"cores": int(cont + 1e-9),
                         "continuous_cores": cont,
                         "area_limited": limited},
            "proportional_cores": request["ceas"] / 2}


def trace_unit(alpha, compulsory=0.0, **extra):
    return {"curve": {"line_counts": [16, 32, 64],
                      "miss_rates": [0.3, 0.2, 0.1]},
            "yavits_fit": {"alpha": alpha, "compulsory": compulsory},
            **extra}


def encoded(rows):
    """Rows in the golden encoding of a mapping."""
    return {"__mapping__": [[key, value] for key, value in rows]}


FIGURE = {"series": [{"name": "curve", "points": [[16, 0.3], [32, 0.2]]}]}

#: Well-formed results of the simulated experiments, and where each
#: keeps its rows.
SIMULATED = {
    "fig14": ({"measurements": [[4.0, 0.175], [8.0, 0.16], [16.0, 0.15]]},
              "measurements"),
    "ext-sharing": ({"by_cores": encoded([(4, [0.10, 0.12, 1.1]),
                                          (8, [0.10, 0.13, 1.2])])},
                    "by_cores"),
    "ext-linesize": ({"by_line_size": encoded(
        (size, [0.01, 0.01 * size]) for size in oracle.LINE_SIZES)},
        "by_line_size"),
    "ext-trace-lru": ({"figure": FIGURE, "units": encoded(
        (alpha, trace_unit(alpha)) for alpha in oracle.TRACE_LRU_ALPHAS)},
        "units"),
    "ext-trace-sharing": ({"figure": FIGURE, "units": encoded(
        (cores, trace_unit(0.5, 0.1 / cores))
        for cores in oracle.TRACE_SHARING_CORES)}, "units"),
}


def truncated(result, key, keep):
    """``result`` with only its first ``keep`` rows under ``key``."""
    result = copy.deepcopy(result)
    rows = result[key]
    if isinstance(rows, dict):
        rows = rows["__mapping__"]
    del rows[keep:]
    return result


class CorruptedAnswerTest(unittest.TestCase):
    """A wrong output is a failed operation and makes the run incorrect."""

    def assert_counted(self, good, bad):
        outcome = run.Outcome()
        outcome.record(good)
        self.assertEqual((outcome.failed, outcome.correct), (0, True))
        outcome.record(bad)
        self.assertEqual((outcome.attempted, outcome.failed), (2, 1))
        self.assertFalse(outcome.correct)

    def test_solve(self):
        request = {"ceas": 96.5, "alpha": 0.41, "budget": 1.7,
                   "techniques": ["DRAM=4", "LC=1.5"]}
        payload = solve_payload(request)
        wrong = copy.deepcopy(payload)
        wrong["solution"]["continuous_cores"] *= 1 + 1e-6
        self.assert_counted(oracle.check_solve_payload(request, payload),
                            oracle.check_solve_payload(request, wrong))

    def test_technique_below_base(self):
        request = {"ceas": 64, "alpha": 0.5, "budget": 1.0,
                   "techniques": ["Fltr=0.4"]}
        base = integer_cores(64, 0.5, 1.0)
        good = {"cores": base + 2, "continuous_cores": base + 2.5}
        bad = {"cores": base - 1, "continuous_cores": base - 0.5}
        self.assert_counted(
            oracle.check_solution(64, 0.5, 1.0, request["techniques"], good),
            oracle.check_solution(64, 0.5, 1.0, request["techniques"], bad))

    def test_sweep_point(self):
        request = {"ceas": [32.0, 64.0], "budgets": [1.0, 1.5],
                   "alpha": 0.5, "techniques": ["CC=2"]}
        points = [dict(solve_payload({**request, "ceas": c, "budget": b})
                       ["solution"], ceas=c, budget=b)
                  for c in request["ceas"] for b in request["budgets"]]
        wrong = copy.deepcopy(points)
        wrong[3]["cores"] += 1
        self.assert_counted(oracle.check_grid(request, points),
                            oracle.check_grid(request, wrong))

    def test_frontier(self):
        frontier = [{"cores": 20, "cache_fraction": 0.5, "traffic": 1.0},
                    {"cores": 30, "cache_fraction": 0.6, "traffic": 1.0}]
        dominated = frontier + [{"cores": 19, "cache_fraction": 0.6,
                                 "traffic": 1.0}]
        self.assert_counted(oracle.check_frontier(frontier),
                            oracle.check_frontier(dominated))

    def test_trace_unit(self):
        unit = {"curve": {"line_counts": [16, 32, 64],
                          "miss_rates": [0.3, 0.2, 0.1]},
                "yavits_fit": {"alpha": 0.5, "compulsory": 0.0}}
        rising = copy.deepcopy(unit)
        rising["curve"]["miss_rates"][2] = 0.25
        self.assert_counted(oracle.check_trace_unit(unit, "unit"),
                            oracle.check_trace_unit(rising, "unit"))
        self.assertTrue(oracle.check_fitted_alpha(0.6, 0.48, "unit"))

    def test_truncated_experiments(self):
        for experiment_id, (result, key) in SIMULATED.items():
            rows = result[key]
            count = len(rows if isinstance(rows, list)
                        else rows["__mapping__"])
            for keep in (count - 1, 0):
                with self.subTest(experiment_id, keep=keep):
                    self.assert_counted(
                        oracle.check_experiment(experiment_id, result),
                        oracle.check_experiment(
                            experiment_id, truncated(result, key, keep)))

    def test_truncated_trace_job(self):
        body = {"source": "powerlaw", "units": [0.41, 0.55], "seed": 7,
                "accesses": 20_000}
        artifact = {"units": [trace_unit(a, unit_value=a)
                              for a in body["units"]]}
        for keep in (1, 0):
            with self.subTest(keep=keep):
                good, bad = run.Op("t", "trace", body), \
                    run.Op("t", "trace", body)
                good.response = {"result": artifact}
                bad.response = {"result": {"units": artifact["units"][:keep]}}
                self.assert_counted(run.JobsMix.check(good),
                                    run.JobsMix.check(bad))

    def test_experiment(self):
        result = {"supportable_cores_flat": 11,
                  "supportable_cores_optimistic": integer_cores(32, 0.5, 1.5),
                  "traffic_at_16_cores": oracle.traffic(16, 32, 0.5)}
        wrong = dict(result, supportable_cores_flat=12)
        self.assert_counted(oracle.check_experiment("fig2", result),
                            oracle.check_experiment("fig2", wrong))
        self.assertTrue(oracle.check_experiment("fig4", {}))


class BenchmarkSpecTest(unittest.TestCase):
    """BENCHMARK.json names exactly the metrics the runs print."""

    def test_metric_tables(self):
        path = os.path.join(BENCH_DIR, os.pardir, "BENCHMARK.json")
        with open(path) as handle:
            spec = json.load(handle)
        self.assertEqual(
            [(m["name"], m["unit"]) for m in spec["end_to_end"]],
            list(run.E2E_METRICS))
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
            list(spans.LAYER_METRICS))
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(run.WORKLOADS))


if __name__ == "__main__":
    unittest.main()

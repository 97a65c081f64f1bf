#!/usr/bin/env python3
"""Unit tests for the benchmark runner's statistics and compare.py's
verdicts (stdlib unittest; no build needed).

    python3 benchmark/run_test.py
"""

import contextlib
import io
import json
import statistics
import sys
import tempfile
import unittest
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import compare  # noqa: E402
import run  # noqa: E402


class StatisticsTest(unittest.TestCase):
    def test_percentile_is_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(run.percentile(values, 50), 50)
        self.assertEqual(run.percentile(values, 90), 90)
        self.assertEqual(run.percentile(values, 99.9), 100)
        self.assertEqual(run.percentile([3.0], 99), 3.0)
        self.assertEqual(run.percentile([5, 1, 4, 2, 3], 60), 3)

    def test_tail_percentile_needs_ten_samples_beyond(self):
        self.assertIsNone(run.tail_percentile(5))
        self.assertIsNone(run.tail_percentile(39))
        self.assertEqual(run.tail_percentile(40), 75.0)
        self.assertEqual(run.tail_percentile(100), 90.0)
        self.assertEqual(run.tail_percentile(199), 90.0)
        self.assertEqual(run.tail_percentile(200), 95.0)
        self.assertEqual(run.tail_percentile(1000), 99.0)
        self.assertEqual(run.tail_percentile(10000), 99.9)

    def test_summarize_reports_count_and_tail(self):
        short = run.summarize([3.0, 1.0, 2.0])
        self.assertEqual(short, {"value": 2.0, "n": 3})
        values = [float(i) for i in range(1, 1001)]
        long = run.summarize(values)
        self.assertEqual(long["n"], 1000)
        self.assertEqual(long["value"], statistics.median(values))
        self.assertEqual(long["tail"], [99.0, 990.0])

    def test_quartiles_match_statistics_quantiles(self):
        values = [9.0, 1.0, 4.0, 7.0, 3.0, 8.0, 2.0, 6.0, 5.0, 10.0]
        self.assertEqual(run.quartiles(values),
                         tuple(statistics.quantiles(values, n=4)))
        self.assertEqual(run.quartiles([4.0]), (4.0, 4.0, 4.0))
        q1, q2, q3 = run.quartiles(values)
        self.assertAlmostEqual(run.spread(values), (q3 - q1) / q2)

    def test_bounds_respect_direction(self):
        # Throughput: lower is worse.
        self.assertAlmostEqual(run.worse_by(100.0, 90.0, "higher"), 0.1)
        self.assertTrue(run.within_bound(100.0, 91.0, "higher", 0.1))
        self.assertFalse(run.within_bound(100.0, 89.0, "higher", 0.1))
        self.assertTrue(run.within_bound(100.0, 500.0, "higher", 0.1))
        # Latency: higher is worse.
        self.assertAlmostEqual(run.worse_by(10.0, 12.0, "lower"), 0.2)
        self.assertTrue(run.within_bound(10.0, 10.9, "lower", 0.1))
        self.assertFalse(run.within_bound(10.0, 11.1, "lower", 0.1))
        self.assertTrue(run.within_bound(10.0, 1.0, "lower", 0.1))


def raw_run(**overrides):
    raw = {
        "workload": "sweep-8k", "seed": run.DEFAULT_SEED,
        "hardware_concurrency": 4, "setup_s": [2.0, 2.2, 2.1],
        "wall_s": [2.0, 1.0, 4.0], "first_row_ms": [800.0, 700.0, 900.0],
        "pairs": [4800, 4800, 4800], "cells_attempted": 9, "cells_failed": 0,
        "peak_rss_mb": 11.5, "digest": "b454fad0b2f6985a", "checks_run": 24,
        "checks_failed": 0, "check_messages": [], "exit_code": 0,
    }
    raw.update(overrides)
    raw["metrics"] = run.end_to_end(raw)
    return raw


class RunCheckTest(unittest.TestCase):
    DIGESTS = {"sweep-8k": "b454fad0b2f6985a"}
    WANTED = ["pairs_per_s", "first_row_ms", "setup_s", "peak_rss_mb"]

    def test_end_to_end_metrics_are_medians(self):
        m = run.end_to_end(raw_run())
        self.assertEqual(m["pairs_per_s"]["value"], 2400.0)
        self.assertEqual(m["pairs_per_s"]["n"], 3)
        self.assertEqual(m["first_row_ms"]["value"], 800.0)
        self.assertEqual(m["setup_s"]["value"], 2.1)
        self.assertEqual(m["failed_frac"]["value"], 0.0)

    def test_clean_run_passes(self):
        self.assertEqual(
            run.check_run(raw_run(), 4, self.DIGESTS, self.WANTED), [])

    def test_digest_is_checked_only_at_the_default_seed(self):
        bad = raw_run(digest="0000000000000000")
        self.assertEqual(
            len(run.check_run(bad, 4, self.DIGESTS, self.WANTED)), 1)
        other_seed = raw_run(digest="0000000000000000", seed=7)
        self.assertEqual(
            run.check_run(other_seed, 4, self.DIGESTS, self.WANTED), [])

    def test_workers_above_hardware_concurrency_fail(self):
        failures = run.check_run(raw_run(hardware_concurrency=2), 4,
                                 self.DIGESTS, self.WANTED)
        self.assertEqual(len(failures), 1)
        self.assertIn("hardware_concurrency", failures[0])

    def test_missing_metric_and_bad_exit_fail(self):
        failures = run.check_run(raw_run(exit_code=2), 4, self.DIGESTS,
                                 self.WANTED + ["cache.hit_ratio"])
        self.assertEqual(len(failures), 2)


class VerdictTest(unittest.TestCase):
    PARENT = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9,
              100.0]

    def test_win_needs_nine_of_ten_and_gap_beyond_parent_iqr(self):
        change = [v * 1.05 for v in self.PARENT]
        self.assertEqual(
            compare.verdict(self.PARENT, change, "higher", 0.1), "win")
        # Eight of ten pairs won: not a win, and within the bound.
        eight = change[:8] + [v * 0.999 for v in self.PARENT[8:]]
        self.assertEqual(
            compare.verdict(self.PARENT, eight, "higher", 0.1), "unchanged")

    def test_gap_inside_parent_iqr_is_not_a_win(self):
        change = [v + 0.01 for v in self.PARENT]  # wins 10/10, tiny gap
        self.assertEqual(
            compare.verdict(self.PARENT, change, "higher", 0.1), "unchanged")

    def test_lower_is_better_direction(self):
        change = [v * 0.9 for v in self.PARENT]
        self.assertEqual(
            compare.verdict(self.PARENT, change, "lower", 0.1), "win")
        self.assertEqual(
            compare.verdict(self.PARENT, change, "higher", 0.05),
            "regression")

    def test_regression_beyond_bound(self):
        change = [v * 0.85 for v in self.PARENT]
        self.assertEqual(
            compare.verdict(self.PARENT, change, "higher", 0.1), "regression")
        self.assertEqual(
            compare.verdict(self.PARENT, change, "higher", 0.2), "unchanged")

    def test_wide_spread_is_unresolved_unless_every_run_is_better(self):
        noisy = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0,
                 100.0]
        self.assertEqual(
            compare.verdict(noisy, list(noisy), "higher", 0.1), "unresolved")
        # Every change run beats every parent run, but the median gap
        # (41.45) stays inside the parent's quartile range (45).
        above = [141.0 + i * 0.1 for i in range(10)]
        self.assertEqual(
            compare.verdict(noisy, above, "higher", 0.1), "better")
        self.assertEqual(
            compare.verdict(noisy, [200.0] * 10, "higher", 0.1), "win")

    def test_too_few_pairs(self):
        self.assertEqual(
            compare.verdict(self.PARENT[:9], self.PARENT[:9], "higher", 0.1),
            "too few pairs")

    def test_compare_pairs_runs_by_seed(self):
        config = {
            "workloads": [{"name": "w"}],
            "end_to_end": [{"name": "pairs_per_s", "unit": "1/s",
                            "better": "higher", "bound": 0.1}],
        }

        def result(values):
            return {"runs": [
                {"workload": "w", "seed": s, "trace": False,
                 "metrics": {"pairs_per_s": {"value": v}}}
                for s, v in values]}

        parent = result([(s, 100.0 + s % 3) for s in range(10)])
        # Same values, stored in reverse order: pairing is by seed.
        change = result([(s, 100.0 + s % 3) for s in reversed(range(10))])
        rows = compare.compare(parent, change, config)
        self.assertEqual(len(rows), 1)
        self.assertEqual(rows[0][2], rows[0][3])
        self.assertEqual(rows[0][4], "unchanged")

    def test_exit_status_counts_failed_runs(self):
        def result(values, incorrect=()):
            return {"runs": [
                {"workload": "sweep-8k", "seed": s, "trace": False,
                 "correct": s not in incorrect,
                 "metrics": {"pairs_per_s": {"value": v}}}
                for s, v in values]}

        same = [(s, 100.0 + s % 3) for s in range(10)]
        slower = [(s, 70.0 + s % 3) for s in range(10)]  # 30% below
        with tempfile.TemporaryDirectory() as tmp:
            def exit_status(parent, change):
                paths = []
                for name, res in (("parent", parent), ("change", change)):
                    paths.append(str(Path(tmp) / f"{name}.json"))
                    with open(paths[-1], "w", encoding="utf-8") as f:
                        json.dump(res, f)
                with contextlib.redirect_stdout(io.StringIO()):
                    return compare.main(paths)

            self.assertEqual(exit_status(result(same), result(same)), 0)
            self.assertEqual(exit_status(result(same), result(slower)), 1)
            self.assertEqual(
                exit_status(result(same), result(same, incorrect={3})), 1)


if __name__ == "__main__":
    unittest.main()

"""Unit tests for the benchmark's report arithmetic.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import math
import unittest

import report


class PercentileRule(unittest.TestCase):
    def test_nearest_rank_and_samples_beyond(self):
        samples = list(range(1, 101))  # 1..100
        self.assertEqual(report.percentile(samples, 95), (95, 5))
        self.assertEqual(report.percentile(samples, 50), (50, 50))
        self.assertEqual(report.percentile([7], 99), (7, 0))

    def test_highest_percentile_with_ten_beyond(self):
        # 200 samples: p95 leaves exactly 10 beyond, p99 only 2.
        self.assertEqual(report.rule_percentile(200), 95.0)
        # 100 samples: p95 leaves 5, p90 leaves 10.
        self.assertEqual(report.rule_percentile(100), 90.0)
        # 99 samples: p90 leaves 9, p75 leaves 24.
        self.assertEqual(report.rule_percentile(99), 75.0)

    def test_never_reports_above_the_wanted_percentile(self):
        self.assertEqual(report.rule_percentile(100000, want=95.0), 95.0)

    def test_falls_back_to_the_median_when_too_few(self):
        self.assertEqual(report.rule_percentile(10), 50.0)
        self.assertEqual(report.tail([5.0, 1.0, 3.0, 4.0], 50.0), (3.5, 2))

    def test_tail_is_the_nearest_rank_value(self):
        samples = list(range(200, 0, -1))
        self.assertEqual(report.tail(samples, 95.0), (190, 10))

    def test_order_of_samples_does_not_matter(self):
        a = [3.0, 1.0, 2.0] * 20
        self.assertEqual(report.tail(a, 90.0), report.tail(sorted(a), 90.0))

    def test_each_workload_has_a_fixed_tail_percentile(self):
        # Fixed per workload, so a faster or slower run never switches it.
        self.assertEqual(report.rule_percentile(report.MIN_READS["serve_mix"]), 95.0)
        self.assertEqual(report.rule_percentile(report.MIN_READS["sweep_vawo"]), 90.0)
        self.assertEqual(report.rule_percentile(report.MIN_READS["sweep_pwt"]), 50.0)

    def test_read_tail_keeps_its_percentile_whatever_the_read_count(self):
        def raw(n_reads):
            ops = [{"kind": "trial", "ok": True, "read_ms": float(i),
                    "write_ms": 1.0} for i in range(1, n_reads + 1)]
            return {"workload": "sweep_vawo", "ops": ops, "setup_s": [1.0],
                    "window_s": 1.0, "accuracy_weighted": 1.0,
                    "accuracy_samples": 1, "peak_rss_mb": 1.0}
        for n in (60, 100, 200):
            metrics, notes = report.end_to_end(raw(n))
            self.assertEqual(metrics["read_p95_ms"][0], math.ceil(0.9 * n))
            self.assertTrue(notes["read_p95_ms"].startswith("p90 "))


def span(sid, parent, name, start, end):
    return {"id": sid, "parent": parent, "op": 0, "name": name,
            "start_us": start, "end_us": end}


class SelfTime(unittest.TestCase):
    def test_covered_merges_overlaps_and_clips(self):
        self.assertEqual(report.covered((0, 100), []), 0)
        self.assertEqual(report.covered((0, 100), [(10, 20), (30, 50)]), 30)
        self.assertEqual(report.covered((0, 100), [(10, 40), (30, 50)]), 40)
        self.assertEqual(report.covered((0, 100), [(-5, 10), (90, 120)]), 20)
        self.assertEqual(report.covered((0, 100), [(0, 100), (20, 30)]), 100)

    def test_self_time_is_duration_minus_children(self):
        spans = [
            span(1, 0, "op:trial", 0, 1000),
            span(2, 1, "core.tune", 100, 700),
            span(3, 2, "inner", 200, 300),
            span(4, 1, "core.evaluate", 700, 900),
            span(5, 0, "op:trial", 2000, 2500),
            span(6, 5, "core.tune", 2000, 2400),
        ]
        t = report.layer_table(spans)
        self.assertEqual(t["op:trial"]["count"], 2)
        self.assertAlmostEqual(t["op:trial"]["busy_s"], 1500e-6)
        self.assertAlmostEqual(t["op:trial"]["self_s"], (200 + 100) * 1e-6)
        self.assertAlmostEqual(t["core.tune"]["busy_s"], 1000e-6)
        self.assertAlmostEqual(t["core.tune"]["self_s"], 900e-6)
        self.assertAlmostEqual(t["core.evaluate"]["self_s"], 200e-6)
        self.assertEqual(t["core.tune"]["ms"], [0.6, 0.4])

    def test_uncovered_share_per_op(self):
        spans = [
            span(1, 0, "op:read", 0, 100),
            span(2, 1, "serve.handle_line", 0, 90),
            span(3, 0, "op:read", 100, 200),
            span(4, 3, "serve.handle_line", 100, 170),
        ]
        self.assertAlmostEqual(report.uncovered_share(spans)["op:read"], 0.2)


if __name__ == "__main__":
    unittest.main()

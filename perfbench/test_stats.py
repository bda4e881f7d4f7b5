"""Self-tests of the benchmark's statistics and gate logic.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import statistics
import unittest

import gate
import stats


def run(**metrics):
    return {"metrics": {k: {"value": v, "unit": "x"} for k, v in metrics.items()}}


SPEC = {"end_to_end": [
    {"name": "latency_ms", "unit": "ms", "better": "lower", "bound": 0.1},
    {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.1},
]}


class PercentileTest(unittest.TestCase):
    def test_interpolates_between_ranks(self):
        self.assertEqual(stats.percentile([1, 2, 3, 4], 50), 2.5)
        self.assertEqual(stats.percentile([4, 1, 3, 2], 0), 1)
        self.assertEqual(stats.percentile([4, 1, 3, 2], 100), 4)
        self.assertAlmostEqual(stats.percentile(list(range(101)), 99), 99.0)

    def test_rejects_empty_and_out_of_range(self):
        with self.assertRaises(ValueError):
            stats.percentile([], 50)
        with self.assertRaises(ValueError):
            stats.percentile([1.0], 101)


class TailTest(unittest.TestCase):
    def test_samples_beyond(self):
        self.assertEqual(stats.samples_beyond(100, 90), 10)
        self.assertEqual(stats.samples_beyond(38, 75), 10)
        self.assertEqual(stats.samples_beyond(37, 75), 9)
        self.assertEqual(stats.samples_beyond(0, 50), 0)

    def test_min_samples_is_the_smallest_count_with_ten_beyond(self):
        for q in stats.TAIL_LADDER:
            n = stats.min_samples(q)
            self.assertGreaterEqual(stats.samples_beyond(n, q), 10)
            self.assertLess(stats.samples_beyond(n - 1, q), 10)
        self.assertEqual(stats.min_samples(90), 92)
        with self.assertRaises(ValueError):
            stats.min_samples(100)

    def test_tail_percentile_picks_the_highest_supported_rung(self):
        self.assertIsNone(stats.tail_percentile(15))
        self.assertEqual(stats.tail_percentile(21), 50.0)
        self.assertEqual(stats.tail_percentile(38), 75.0)
        self.assertEqual(stats.tail_percentile(101), 90.0)
        self.assertEqual(stats.tail_percentile(1001), 99.0)
        self.assertEqual(stats.tail_percentile(10**6), 99.9)
        # Each rung is supported exactly from its minimum sample count.
        for q in stats.TAIL_LADDER:
            self.assertEqual(stats.tail_percentile(stats.min_samples(q)), q)


class QuartileTest(unittest.TestCase):
    def test_median_and_quartiles_match_statistics(self):
        v = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0, 10.0]
        self.assertEqual(stats.quartiles(v), tuple(statistics.quantiles(v, n=4)))
        self.assertEqual(stats.quartiles(v)[1], statistics.median(v))

    def test_spread_is_iqr_over_median(self):
        v = [90.0, 95.0, 100.0, 105.0, 110.0]
        q1, q2, q3 = statistics.quantiles(v, n=4)
        self.assertAlmostEqual(stats.spread(v), (q3 - q1) / q2)
        self.assertEqual(stats.spread([7.0] * 10), 0.0)


class BoundTest(unittest.TestCase):
    def test_lower_is_better(self):
        self.assertAlmostEqual(stats.worse_by(100.0, 110.0, "lower"), 0.1)
        self.assertAlmostEqual(stats.worse_by(100.0, 90.0, "lower"), -0.1)
        self.assertTrue(stats.regressed([100.0] * 3, [111.0] * 3, "lower", 0.1))
        self.assertFalse(stats.regressed([100.0] * 3, [109.0] * 3, "lower", 0.1))
        self.assertFalse(stats.regressed([100.0] * 3, [50.0] * 3, "lower", 0.1))

    def test_higher_is_better(self):
        self.assertAlmostEqual(stats.worse_by(100.0, 90.0, "higher"), 0.1)
        self.assertTrue(stats.regressed([100.0] * 3, [89.0] * 3, "higher", 0.1))
        self.assertFalse(stats.regressed([100.0] * 3, [91.0] * 3, "higher", 0.1))
        self.assertFalse(stats.regressed([100.0] * 3, [200.0] * 3, "higher", 0.1))

    def test_rejects_unknown_direction_and_zero_base(self):
        with self.assertRaises(ValueError):
            stats.worse_by(1.0, 2.0, "sideways")
        with self.assertRaises(ValueError):
            stats.worse_by(0.0, 2.0, "lower")


class GateTest(unittest.TestCase):
    def test_compare_flags_regressions_in_both_directions(self):
        base = [run(latency_ms=100.0 + i, rate=50.0 + i) for i in range(5)]
        slower = [run(latency_ms=120.0 + i, rate=50.0 + i) for i in range(5)]
        fewer = [run(latency_ms=100.0 + i, rate=40.0 + i) for i in range(5)]
        status = {r[0]: r[4] for r in gate.compare_report(base, slower, SPEC)}
        self.assertEqual(status, {"latency_ms": "REGRESSION", "rate": "ok"})
        status = {r[0]: r[4] for r in gate.compare_report(base, fewer, SPEC)}
        self.assertEqual(status, {"latency_ms": "ok", "rate": "REGRESSION"})

    def test_wide_base_spread_is_unresolved_unless_every_run_is_better(self):
        base = [run(latency_ms=v, rate=50.0) for v in (60.0, 80.0, 100.0, 120.0, 140.0)]
        overlap = [run(latency_ms=v, rate=50.0) for v in (65.0, 85.0, 105.0, 125.0, 145.0)]
        clear = [run(latency_ms=v, rate=50.0) for v in (10.0, 11.0, 12.0, 13.0, 14.0)]
        status = {r[0]: r[4] for r in gate.compare_report(base, overlap, SPEC)}
        self.assertEqual(status["latency_ms"], "unresolved")
        status = {r[0]: r[4] for r in gate.compare_report(base, clear, SPEC)}
        self.assertEqual(status["latency_ms"], "ok")

    def test_spread_report_against_bound(self):
        steady = [run(latency_ms=100.0 + i * 0.1, rate=50.0) for i in range(10)]
        wide = [run(latency_ms=100.0 * (1 + i), rate=50.0) for i in range(10)]
        self.assertEqual(gate.spread_report(steady, SPEC)[0][6], "steady")
        self.assertEqual(gate.spread_report(wide, SPEC)[0][6], "TOO WIDE")

    def test_exact_counts_must_repeat(self):
        self.assertTrue(gate.is_exact_count("sim.events"))
        self.assertTrue(gate.is_exact_count("monitor.detect_rate"))
        self.assertFalse(gate.is_exact_count("core.batch_ms"))
        self.assertFalse(gate.is_exact_count("rpc.get_status_us"))
        self.assertFalse(gate.is_exact_count("exec.shard_skew"))
        a = [run(**{"sim.events": 10.0, "core.self_ms": 5.0})]
        b = [run(**{"sim.events": 10.0, "core.self_ms": 3.0})]
        c = [run(**{"sim.events": 11.0, "core.self_ms": 5.0})]
        self.assertEqual(gate.count_drift(a, b), [])
        self.assertEqual(gate.count_drift(a, c), [(0, "sim.events", 10.0, 11.0)])


if __name__ == "__main__":
    unittest.main()

"""Tests for the benchmark's own statistics and request-stream generator.

Run from the root of the checkout:  python3 -m unittest perfbench/test_benchlib.py
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import benchlib  # noqa: E402

ALGORITHMS = ["pipeline", "bspg", "etf", "cilk"]


class PercentileRule(unittest.TestCase):
    def test_interpolates_between_ranks(self):
        self.assertEqual(benchlib.percentile([1, 2, 3, 4, 5], 50), 3)
        self.assertEqual(benchlib.percentile([10, 20], 50), 15)
        self.assertEqual(benchlib.percentile([4, 1, 3, 2], 100), 4)

    def test_too_few_samples_has_no_tail(self):
        self.assertIsNone(benchlib.tail_percentile(list(range(19))))

    def test_highest_percentile_with_ten_samples_beyond(self):
        for n, p in [(20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0),
                     (1000, 99.0), (10000, 99.9)]:
            got = benchlib.tail_percentile(list(range(n)))
            self.assertEqual(got[0], p, "n=%d" % n)
            self.assertEqual(got[1], benchlib.percentile(list(range(n)), p))
            beyond = sum(1 for x in range(n) if x > got[1])
            self.assertGreaterEqual(beyond, 10)


class Aggregates(unittest.TestCase):
    def test_geomean(self):
        self.assertAlmostEqual(benchlib.geomean([1, 4]), 2.0)
        self.assertAlmostEqual(benchlib.geomean([7, 7, 7]), 7.0)
        self.assertAlmostEqual(benchlib.geomean([2, 8, 4]), 4.0)
        for bad in ([], [0, 3], [-1, 2]):
            with self.assertRaises(ValueError):
                benchlib.geomean(bad)

    def test_budget_ratio(self):
        self.assertAlmostEqual(benchlib.budget_ratio([3.0, 9.0], [6.0, 6.0]), 1.0)
        self.assertAlmostEqual(benchlib.budget_ratio([0.5], [1.0]), 0.5)
        self.assertAlmostEqual(benchlib.budget_ratio([1.0, 2.0, 30.0], [1.0, 1.0, 10.0]), 2.0)
        with self.assertRaises(ValueError):
            benchlib.budget_ratio([1.0], [1.0, 2.0])
        with self.assertRaises(ValueError):
            benchlib.budget_ratio([], [])


def simulate_cache(stream):
    """The status Engine.handle gives each request of a stream."""
    budgets = {}
    statuses = []
    for r in stream:
        key = (r["instance"], r["algorithm"], r["seed"])
        sensitive = r["algorithm"] in benchlib.BUDGET_SENSITIVE
        if key in budgets and (not sensitive or r["seconds"] <= budgets[key]):
            statuses.append(benchlib.HIT)
            continue
        statuses.append(benchlib.REFRESH if key in budgets else benchlib.MISS)
        budgets[key] = max(r["seconds"], budgets.get(key, 0.0))
    return statuses


class RequestStream(unittest.TestCase):
    def make(self, seed, n=24):
        return benchlib.make_sessions(seed, n, 12, ALGORITHMS, 1.0)

    def test_same_seed_same_stream(self):
        self.assertEqual(self.make(7), self.make(7))
        self.assertNotEqual(self.make(7), self.make(8))
        # a longer run extends the stream; it does not change its start
        self.assertEqual(self.make(7, 30)[:24], self.make(7))

    def test_expected_statuses_match_the_cache_protocol(self):
        for seed in range(1, 30):
            stream = [r for session in self.make(seed) for r in session]
            self.assertEqual([r["expected"] for r in stream], simulate_cache(stream))

    def test_refreshes_only_budget_sensitive_keys(self):
        for seed in range(1, 30):
            for session in self.make(seed):
                for r in session:
                    if r["expected"] == benchlib.REFRESH:
                        self.assertIn(r["algorithm"], benchlib.BUDGET_SENSITIVE)

    def test_fixed_mix(self):
        for seed in range(1, 30):
            for session in self.make(seed):
                counts = {s: sum(r["expected"] == s for r in session)
                          for s in (benchlib.HIT, benchlib.MISS, benchlib.REFRESH)}
                self.assertEqual(counts, {benchlib.HIT: 7, benchlib.MISS: 2, benchlib.REFRESH: 1})
                self.assertEqual(session[0]["expected"], benchlib.MISS)

    def test_first_round_covers_every_instance_once_per_kind(self):
        for seed in range(1, 30):
            misses = [(r["instance"], r["algorithm"] in benchlib.BUDGET_SENSITIVE)
                      for session in self.make(seed, 12) for r in session
                      if r["expected"] == benchlib.MISS]
            for sensitive in (True, False):
                self.assertEqual(sorted(i for i, s in misses if s == sensitive), list(range(12)))


if __name__ == "__main__":
    unittest.main()

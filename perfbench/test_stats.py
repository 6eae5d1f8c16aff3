"""Self-tests of the percentile discipline: python3 -m unittest discover perfbench"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import stats  # noqa: E402


class NearestRank(unittest.TestCase):
    def test_known_vector(self):
        values = list(range(1, 101))  # 1..100
        self.assertEqual(stats.nearest_rank(values, 0.5), (50, 50))
        self.assertEqual(stats.nearest_rank(values, 0.9), (90, 10))
        self.assertEqual(stats.nearest_rank(values, 1.0), (100, 0))

    def test_single_sample(self):
        self.assertEqual(stats.nearest_rank([7.0], 0.5), (7.0, 0))

    def test_rejects_bad_input(self):
        with self.assertRaises(ValueError):
            stats.nearest_rank([], 0.5)
        with self.assertRaises(ValueError):
            stats.nearest_rank([1.0], 0.0)


class Discipline(unittest.TestCase):
    def test_boundary_counts(self):
        # p99.9 needs 10 samples beyond it: 10000 samples leave exactly 10.
        for n, q, ok in [(10000, 0.999, True), (9999, 0.999, False),
                         (1000, 0.99, True), (999, 0.99, False),
                         (20, 0.5, True), (19, 0.5, False)]:
            values = [float(v) for v in range(n)]
            if ok:
                self.assertEqual(stats.percentile(values, q)[1:], (n, 10))
            else:
                with self.assertRaises(ValueError):
                    stats.percentile(values, q)

    def test_percentile_reports_count(self):
        values = [float(v) for v in range(2000, 0, -1)]  # unsorted input
        self.assertEqual(stats.percentile(values, 0.99), (1980.0, 2000, 20))

    def test_pooled_repeats_count_once(self):
        # 5 repeats of 2000 rounds pool 10000 samples, but only 2 distinct
        # rounds lie beyond p99.9: refused. 10000 distinct rounds pass.
        rounds = [float(v) for v in range(2000)]
        with self.assertRaises(ValueError):
            stats.percentile(rounds * 5, 0.999, distinct=2000)
        self.assertEqual(stats.percentile(rounds * 5, 0.99, distinct=2000),
                         (1979.0, 10000, 20))
        many = [float(v) for v in range(10000)]
        self.assertEqual(stats.percentile(many * 3, 0.999, distinct=10000)[1:],
                         (30000, 10))
        with self.assertRaises(ValueError):
            stats.percentile(rounds, 0.5, distinct=2001)

    def test_percentile_refuses_thin_tail(self):
        with self.assertRaises(ValueError):
            stats.percentile([], 0.5)
        with self.assertRaises(ValueError):
            stats.percentile([1.0] * 5, 0.5)


class Spread(unittest.TestCase):
    def test_median_and_spread(self):
        self.assertEqual(stats.median([3, 1, 2]), 2)
        self.assertEqual(stats.median([4, 1, 2, 3]), 2.5)
        self.assertEqual(stats.quartile_spread([5.0]), 0.0)
        self.assertEqual(stats.quartile_spread([2.0] * 10), 0.0)
        self.assertGreater(stats.quartile_spread([1.0, 2.0, 3.0, 4.0]), 0.0)


if __name__ == "__main__":
    unittest.main()

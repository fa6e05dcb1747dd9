"""Tests of the benchmark's own statistics.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import statistics
import unittest

import stats


class RunValues(unittest.TestCase):
    def test_median_odd_and_even(self):
        self.assertEqual(stats.median([3, 1, 2]), 2)
        self.assertEqual(stats.median([4, 1, 3, 2]), 2.5)

    def test_quartiles_match_the_statistics_module(self):
        values = [10.0, 12.0, 11.0, 15.0, 9.0, 13.0, 14.0, 10.5, 11.5, 12.5]
        self.assertEqual(stats.quartiles(values), tuple(statistics.quantiles(values, n=4)))

    def test_quartiles_of_known_values(self):
        # Exclusive method: positions (n+1)/4 and 3(n+1)/4 of 1..7.
        self.assertEqual(stats.quartiles([1, 2, 3, 4, 5, 6, 7]), (2.0, 4.0, 6.0))

    def test_spread_is_iqr_over_median(self):
        self.assertAlmostEqual(stats.spread([1, 2, 3, 4, 5, 6, 7]), (6 - 2) / 4)
        self.assertEqual(stats.spread([5.0] * 10), 0.0)


class TailPercentile(unittest.TestCase):
    def test_nearest_rank(self):
        samples = list(range(1, 101))
        self.assertEqual(stats.nearest_rank(samples, 0.5), 50)
        self.assertEqual(stats.nearest_rank(samples, 0.99), 99)
        self.assertEqual(stats.nearest_rank(samples, 1.0), 100)
        self.assertEqual(stats.nearest_rank([7], 0.01), 7)

    def test_requested_percentile_when_enough_samples_lie_beyond(self):
        samples = list(range(1, 1001))
        value, used = stats.tail_percentile(samples, 0.99)
        self.assertEqual((value, used), (990, 0.99))  # 10 samples beyond

    def test_falls_back_when_samples_are_few(self):
        samples = list(range(1, 101))  # p99 would leave 1 sample beyond
        value, used = stats.tail_percentile(samples, 0.99)
        self.assertAlmostEqual(used, 0.90)
        self.assertEqual(value, 90)
        self.assertEqual(len([s for s in samples if s > value]), 10)

    def test_fallback_never_goes_below_the_median(self):
        value, used = stats.tail_percentile([1, 2, 3, 4, 5], 0.99)
        self.assertEqual(used, 0.5)
        self.assertEqual(value, 3)

    def test_no_samples_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.tail_percentile([])


class Windows(unittest.TestCase):
    def test_pairs_fall_into_consecutive_windows(self):
        pairs = [(0, "a"), (9, "b"), (10, "c"), (25, "d"), (30, "late")]
        self.assertEqual(stats.windows(pairs, 10, 3), [["a", "b"], ["c"], ["d"]])

    def test_windowed_tail_ignores_a_burst_in_one_window(self):
        calm = [(w * 100 + i, 10 + i % 7) for w in range(5) for i in range(100)]
        burst = [(200 + i, 1000) for i in range(50)]  # window 2 only
        tail = stats.windowed_tail(calm + burst, 100, 5, p=0.99)
        self.assertLess(tail, 1000)
        self.assertEqual(tail, stats.windowed_tail(calm, 100, 5, p=0.99))

    def test_windowed_rate_is_the_median_window_rate(self):
        times = [0, 1, 2, 3, 10, 11, 20, 21, 22]  # 4, 2 and 3 events
        self.assertEqual(stats.windowed_rate(times, 10, 3), 0.3)


class SelfTimes(unittest.TestCase):
    def test_leaf_self_time_is_its_duration(self):
        spans = [(0, -1, "a", 0, 10)]
        self.assertEqual(stats.self_times(spans), {0: 10})

    def test_children_are_subtracted(self):
        spans = [(0, -1, "root", 0, 100), (1, 0, "x", 10, 30), (2, 0, "y", 50, 60)]
        self.assertEqual(stats.self_times(spans), {0: 70, 1: 20, 2: 10})

    def test_overlapping_children_count_once(self):
        spans = [(0, -1, "root", 0, 100), (1, 0, "x", 10, 40), (2, 0, "y", 30, 50)]
        self.assertEqual(stats.self_times(spans)[0], 100 - 40)

    def test_children_are_clipped_to_the_parent(self):
        spans = [(0, -1, "root", 10, 20), (1, 0, "x", 5, 15)]
        self.assertEqual(stats.self_times(spans)[0], 5)

    def test_grandchildren_only_reduce_their_parent(self):
        spans = [(0, -1, "root", 0, 100), (1, 0, "x", 0, 50), (2, 1, "y", 0, 20)]
        self.assertEqual(stats.self_times(spans), {0: 50, 1: 30, 2: 20})

    def test_self_times_of_a_tree_sum_to_the_root_duration(self):
        spans = [
            (0, -1, "root", 0, 1000),
            (1, 0, "a", 100, 400),
            (2, 1, "b", 150, 200),
            (3, 0, "c", 500, 900),
        ]
        selfs = stats.self_times(spans)
        self.assertEqual(sum(selfs[i] for i in stats.subtree(spans, 0)), 1000)

    def test_union_length(self):
        self.assertEqual(stats.union_length([]), 0)
        self.assertEqual(stats.union_length([(0, 5), (3, 8), (10, 12)]), 10)


if __name__ == "__main__":
    unittest.main()

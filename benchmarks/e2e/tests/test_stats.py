import statistics
import unittest

from stats import percentile, percentile_summary, quartiles, spread


class PercentileTest(unittest.TestCase):
    def test_nearest_rank_is_an_observed_value(self):
        values = [float(v) for v in range(1, 101)]
        self.assertEqual(percentile(values, 50), 50.0)
        self.assertEqual(percentile(values, 90), 90.0)
        self.assertEqual(percentile(values, 99), 99.0)
        self.assertEqual(percentile(values, 100), 100.0)
        self.assertEqual(percentile([7.0], 99), 7.0)

    def test_summary_counts_the_samples_beyond_each_rank(self):
        summary = percentile_summary([float(v) for v in range(1000, 0, -1)])
        self.assertEqual(summary["samples"], 1000)
        self.assertEqual((summary["p50"], summary["p50_beyond"]), (500.0, 500))
        self.assertEqual((summary["p90"], summary["p90_beyond"]), (900.0, 100))
        self.assertEqual((summary["p99"], summary["p99_beyond"]), (990.0, 10))
        small = percentile_summary([1.0, 2.0, 3.0])
        self.assertEqual((small["p99"], small["p99_beyond"]), (3.0, 0))

    def test_rejects_empty_and_out_of_range(self):
        with self.assertRaises(ValueError):
            percentile([], 50)
        with self.assertRaises(ValueError):
            percentile([1.0], 0)


class QuartileTest(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        values = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0, 6.0, 5.5, 3.5]
        q1, median, q3 = quartiles(values)
        self.assertEqual([q1, median, q3], statistics.quantiles(values, n=4))
        self.assertAlmostEqual(spread(values), (q3 - q1) / median)

    def test_single_value_has_no_spread(self):
        self.assertEqual(quartiles([2.5]), (2.5, 2.5, 2.5))
        self.assertEqual(spread([2.5]), 0.0)



if __name__ == "__main__":
    unittest.main()

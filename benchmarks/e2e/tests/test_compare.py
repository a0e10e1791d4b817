import unittest

from compare import verdict


class VerdictTest(unittest.TestCase):
    BASE = [100.0, 101.0, 99.0, 100.5, 99.5]

    def test_within_the_bound_is_the_same(self):
        self.assertEqual(verdict(self.BASE, [95.0, 96.0, 94.0, 95.5, 94.5], 0.1, "higher"), "same")

    def test_a_drop_beyond_the_bound_is_worse(self):
        self.assertEqual(verdict(self.BASE, [80.0, 81.0, 79.0, 80.5, 79.5], 0.1, "higher"), "worse")
        # Lower-is-better metrics read the same change the other way round.
        self.assertEqual(verdict(self.BASE, [80.0, 81.0, 79.0, 80.5, 79.5], 0.1, "lower"), "better")

    def test_a_spread_wider_than_the_bound_is_unresolved(self):
        noisy = [70.0, 130.0, 85.0, 115.0, 100.0]
        self.assertEqual(verdict(self.BASE, noisy, 0.1, "higher"), "unresolved")

    def test_unless_every_candidate_run_beats_every_baseline_run(self):
        noisy_but_higher = [120.0, 190.0, 140.0, 170.0, 150.0]
        self.assertEqual(verdict(self.BASE, noisy_but_higher, 0.1, "higher"), "better")

    def test_metrics_without_a_bound_get_no_verdict(self):
        self.assertEqual(verdict(self.BASE, self.BASE, None, "lower"), "")


if __name__ == "__main__":
    unittest.main()

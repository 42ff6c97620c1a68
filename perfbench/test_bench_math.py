"""Tests for the benchmark's own arithmetic.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import math
import unittest

import bench_math as bm


class NearestRankTest(unittest.TestCase):
    def test_ranks(self):
        values = list(range(1, 101))  # 1..100
        self.assertEqual(bm.nearest_rank(values, 50), 50)
        self.assertEqual(bm.nearest_rank(values, 99), 99)
        self.assertEqual(bm.nearest_rank(values, 100), 100)
        self.assertEqual(bm.nearest_rank(values, 0.5), 1)

    def test_unsorted_input_and_small_lists(self):
        self.assertEqual(bm.nearest_rank([3, 1, 2], 50), 2)
        self.assertEqual(bm.nearest_rank([7], 99), 7)

    def test_empty_is_an_error(self):
        with self.assertRaises(ValueError):
            bm.nearest_rank([], 50)


class TenBeyondRuleTest(unittest.TestCase):
    def test_samples_beyond(self):
        self.assertEqual(bm.samples_beyond(1000, 99), 10)
        self.assertEqual(bm.samples_beyond(999, 99), 9)
        self.assertEqual(bm.samples_beyond(20, 50), 10)

    def test_p99_needs_a_thousand_samples(self):
        self.assertIsNone(bm.reportable_percentile(list(range(999)), 99))
        self.assertEqual(bm.reportable_percentile(list(range(1000)), 99), 989)

    def test_p50_needs_twenty(self):
        self.assertIsNone(bm.reportable_percentile(list(range(19)), 50))
        self.assertEqual(bm.reportable_percentile(list(range(20)), 50), 9)

    def test_empty_is_not_reportable(self):
        self.assertIsNone(bm.reportable_percentile([], 50))


class GeomeanTest(unittest.TestCase):
    def test_values(self):
        self.assertAlmostEqual(bm.geomean([1, 100]), 10.0)
        self.assertAlmostEqual(bm.geomean([2, 8]), 4.0)
        self.assertAlmostEqual(bm.geomean([5]), 5.0)

    def test_weighs_every_job(self):
        # One slow job moves the geometric mean by its share, not by
        # its magnitude as an arithmetic mean would.
        fast = [1.0] * 9
        self.assertAlmostEqual(bm.geomean(fast + [1000.0]), 1000 ** 0.1)

    def test_rejects_non_positive(self):
        with self.assertRaises(ValueError):
            bm.geomean([1, 0])
        with self.assertRaises(ValueError):
            bm.geomean([])


class IiOverMiiTest(unittest.TestCase):
    def test_mapped(self):
        self.assertEqual(bm.ii_over_mii(4, 2, 16, True), 2.0)

    def test_unmapped_counts_at_max_ii_plus_one(self):
        self.assertEqual(bm.ii_over_mii(-1, 2, 16, False), 8.5)

    def test_mapping_one_more_job_never_reads_worse(self):
        # Even the worst mapped II (max_ii) beats the unmapped penalty.
        for mii in range(1, 17):
            for ii in range(mii, 17):
                self.assertLess(bm.ii_over_mii(ii, mii, 16, True),
                                bm.ii_over_mii(-1, mii, 16, False))

    def test_zero_mii_is_clamped(self):
        self.assertEqual(bm.ii_over_mii(3, 0, 16, True), 3.0)


class FailureClassificationTest(unittest.TestCase):
    def test_answers_are_not_failures(self):
        self.assertFalse(bm.is_failure("verified"))
        self.assertFalse(bm.is_failure("unmappable"))
        self.assertFalse(bm.is_failure("rejected_429"))

    def test_every_failure_class(self):
        for verdict in bm.FAILURES:
            self.assertTrue(bm.is_failure(verdict), verdict)

    def test_wrong_outputs_are_failures(self):
        for verdict in bm.WRONG_OUTPUT:
            self.assertTrue(bm.is_failure(verdict), verdict)
            self.assertTrue(bm.is_wrong_output(verdict), verdict)

    def test_missing_outputs_are_not_wrong(self):
        for verdict in ("resource_limit", "error", "backend_reject", "transport",
                        "http_5xx", "unanswered"):
            self.assertFalse(bm.is_wrong_output(verdict), verdict)


class OpenLoopTest(unittest.TestCase):
    def test_lateness(self):
        self.assertEqual(bm.lateness_ms([0.0, 0.01], [0.001, 0.01]),
                         [1.0, 0.0])
        # A send can never be early.
        self.assertEqual(bm.lateness_ms([0.5], [0.4]), [0.0])

    def test_backlog(self):
        steady = [0.1] * 40
        self.assertFalse(bm.backlog_growing(steady))
        growing = [i * 1.0 for i in range(40)]
        self.assertTrue(bm.backlog_growing(growing))
        self.assertFalse(bm.backlog_growing([0.0, 100.0]))

    def test_failed_requests_count_over_the_limit(self):
        self.assertEqual(bm.latency_with_failures(3.0, False, 250.0), 3.0)
        self.assertEqual(bm.latency_with_failures(3.0, True, 250.0), 253.0)

    def test_ladder(self):
        def rung(rate, ms, failures=0, backlog=False):
            return {"rate": rate, "latencies_ms": [ms] * 100,
                    "failures": failures, "backlog": backlog}
        self.assertEqual(bm.max_rate_meeting_slo(
            [rung(10, 5), rung(20, 8), rung(40, 300)], 250), 20)
        self.assertEqual(bm.max_rate_meeting_slo(
            [rung(10, 5), rung(20, 8, failures=1)], 250), 10)
        self.assertEqual(bm.max_rate_meeting_slo(
            [rung(10, 5), rung(20, 8, backlog=True), rung(40, 5)], 250), 10)
        self.assertEqual(bm.max_rate_meeting_slo([rung(10, 300)], 250), 0)


class SpreadTest(unittest.TestCase):
    def test_quartile_spread(self):
        values = [10, 10, 10, 10, 10, 10, 10, 10, 10, 10]
        self.assertEqual(bm.quartile_spread(values), 0.0)
        values = [9, 10, 11, 10, 9, 11, 10, 10, 9, 11]
        self.assertTrue(0 < bm.quartile_spread(values) < 0.25)

    def test_zero_median(self):
        self.assertEqual(bm.quartile_spread([0, 0, 0, 0]), 0.0)
        self.assertTrue(math.isinf(bm.quartile_spread([0, 0, 0, 1, -1])))


if __name__ == "__main__":
    unittest.main()

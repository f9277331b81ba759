# Copyright 2026 The gkmeans Authors.
"""Unit tests for benchmark/stats.py. Run: python3 benchmark/test_stats.py"""

import math
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import stats  # noqa: E402  (sibling module)


class TailRuleTest(unittest.TestCase):
    def test_highest_percentile_with_ten_beyond(self):
        # 200 samples: p95 leaves 10 beyond, p99 only 2.
        self.assertEqual(stats.tail_percentile(200), 0.95)
        # 1000 samples: p99 leaves exactly 10 beyond.
        self.assertEqual(stats.tail_percentile(1000), 0.99)
        self.assertEqual(stats.tail_percentile(999), 0.95)
        # 20000 samples: p99.9 leaves 20; p99.99 only 2.
        self.assertEqual(stats.tail_percentile(20000), 0.999)

    def test_too_few_samples_fall_back_to_max(self):
        self.assertIsNone(stats.tail_percentile(19))
        self.assertEqual(stats.tail([3.0, 1.0, 2.0]), (1.0, 3.0))

    def test_tail_value_is_nearest_rank(self):
        values = list(range(1, 201))  # 1..200
        q, v = stats.tail(values)
        self.assertEqual(q, 0.95)
        self.assertEqual(v, 190)  # ceil(0.95 * 200) = 190th smallest

    def test_percentile_sorts_infinities_last(self):
        self.assertEqual(stats.percentile([math.inf, 1.0, 2.0], 0.5), 2.0)
        self.assertEqual(stats.percentile([math.inf, 1.0], 1.0), math.inf)

    def test_blocks_fold_the_remainder_into_the_last(self):
        self.assertEqual([len(b) for b in stats.blocks(list(range(2500)))],
                         [1000, 1500])
        self.assertEqual([len(b) for b in stats.blocks(list(range(10)))],
                         [10])

    def test_blocked_tail_outvotes_one_stalled_block(self):
        values = []
        for b in range(5):
            values += [50.0 if (b == 2 and i >= 900) else 1.0 + i / 1000
                       for i in range(1000)]
        q, v = stats.blocked_tail(values)
        self.assertEqual(q, 0.99)       # 1000 per block: ten beyond p99
        # 990th smallest of each clean block; the stalled block is outvoted.
        self.assertAlmostEqual(v, 1.989)
        self.assertAlmostEqual(stats.median_block(values, 0.5), 1.499)


class LadderTest(unittest.TestCase):
    def step(self, p99=2000.0, failed=0.0, sends=2000, done=2000):
        return stats.step_passes(p99, failed, sends, done)

    def test_step_rule(self):
        self.assertTrue(self.step())
        self.assertFalse(self.step(p99=10001.0))
        self.assertFalse(self.step(p99=math.inf))
        self.assertTrue(self.step(failed=0.001))
        self.assertFalse(self.step(failed=0.002))

    def test_backlog_fails_a_fast_step(self):
        # Low latency in the median block, but the last second completed
        # only 90% of what it sent: the queue is growing.
        self.assertFalse(self.step(p99=800.0, sends=2000, done=1800))
        self.assertTrue(self.step(p99=800.0, sends=2000, done=1900))

    def test_max_rate_is_highest_pass_below_lowest_fail(self):
        steps = [(2000, True), (8000, True), (16000, True), (32000, False),
                 (22627, True), (26909, False), (24675, True)]
        self.assertEqual(stats.ladder_max_rate(steps), 24675)

    def test_pass_above_a_failure_does_not_count(self):
        steps = [(2000, True), (4000, False), (8000, True)]
        self.assertEqual(stats.ladder_max_rate(steps), 2000)

    def test_a_retried_rate_counts_by_its_last_attempt(self):
        steps = [(2000, True), (24000, False), (24000, True), (30000, False),
                 (30000, False), (26833, True)]
        self.assertEqual(stats.ladder_max_rate(steps), 26833)

    def test_no_pass_reads_zero(self):
        self.assertEqual(stats.ladder_max_rate([(2000, False)]), 0.0)


class SelfTimeTest(unittest.TestCase):
    def test_nested_spans(self):
        spans = [
            ["root", 0, 100, -1, 0],
            ["a", 10, 40, 0, 0],
            ["b", 30, 60, 0, 0],   # overlaps a: union of children is 10..60
            ["c", 15, 20, 1, 0],   # child of a
        ]
        self_ns = stats.self_times(spans)
        self.assertEqual(self_ns["root"], 50)
        self.assertEqual(self_ns["a"], 25)
        self.assertEqual(self_ns["b"], 30)
        self.assertEqual(self_ns["c"], 5)

    def test_children_clipped_to_parent(self):
        spans = [["root", 0, 10, -1, 0], ["late", 5, 30, 0, 0]]
        self.assertEqual(stats.self_times(spans)["root"], 5)

    def test_keep_selects_spans(self):
        spans = [["w", 0, 10, -1, 0], ["w", 10, 30, -1, 1],
                 ["o", 12, 20, 1, 1]]
        self_ns = stats.self_times(spans, lambda s: s[4] >= 1)
        self.assertEqual(self_ns, {"w": 12, "o": 8})


class CompareRulesTest(unittest.TestCase):
    def test_win_fraction_counts_ties_for_neither(self):
        pairs = [(10, 9), (10, 10), (10, 11), (10, 8)]
        self.assertEqual(stats.win_fraction(pairs, "lower"), 0.5)
        self.assertEqual(stats.win_fraction(pairs, "higher"), 0.25)

    def test_gain_needs_nine_in_ten_and_a_gap_beyond_spread(self):
        parent = [100, 101, 102, 99, 100, 101, 100, 102, 99, 100]
        clear = [(p, p - 10) for p in parent]
        self.assertTrue(stats.gain_claimed(clear, "lower"))
        # Wins 9 of 10 pairs, but by less than the parent's own spread.
        narrow = [(p, p - 1) for p in parent[:9]] + [(parent[9], 105)]
        self.assertFalse(stats.gain_claimed(narrow, "lower"))
        # Far better medians, but only 8 of 10 wins.
        mixed = [(p, p - 10) for p in parent[:8]] + [(100, 120), (100, 130)]
        self.assertFalse(stats.gain_claimed(mixed, "lower"))

    def test_verdicts(self):
        parent = [100.0, 101.0, 99.0, 100.0, 100.5]
        self.assertEqual(stats.verdict(parent, [100.2, 100.8, 99.5, 100.1,
                                                100.3], "lower", 0.05),
                         "held")
        self.assertEqual(stats.verdict(parent, [110.0, 111.0, 109.0, 110.0,
                                                110.5], "lower", 0.05),
                         "regressed")
        noisy = [80.0, 120.0, 100.0, 90.0, 110.0]
        self.assertEqual(stats.verdict(parent, noisy, "lower", 0.05),
                         "unresolved")
        # Every change run beats every parent run: held despite the noise.
        self.assertEqual(stats.verdict([150.0, 200.0, 250.0],
                                       [10.0, 20.0, 90.0], "lower", 0.05),
                         "held")


if __name__ == "__main__":
    unittest.main()

#!/usr/bin/env python3
"""Self-test of the benchmark's statistics helpers:

  python3 perfbench/test_stats.py
"""

import random
import unittest

import stats


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))
        random.Random(1).shuffle(values)
        self.assertEqual(stats.percentile(values, 50), 50)
        self.assertEqual(stats.percentile(values, 95), 95)
        self.assertEqual(stats.percentile(values, 100), 100)
        self.assertEqual(stats.percentile([7.5], 95), 7.5)
        self.assertEqual(stats.percentile([3, 1, 2], 50), 2)

    def test_rejects_empty_and_bad_rank(self):
        with self.assertRaises(ValueError):
            stats.percentile([], 50)
        with self.assertRaises(ValueError):
            stats.percentile([1, 2], 0)
        with self.assertRaises(ValueError):
            stats.percentile([1, 2], 101)

    def test_samples_beyond(self):
        self.assertEqual(stats.samples_beyond(200, 95), 10)
        self.assertEqual(stats.samples_beyond(199, 95), 9)
        self.assertEqual(stats.samples_beyond(20, 50), 10)
        self.assertEqual(stats.samples_beyond(0, 95), 0)
        for n in range(1, 500):
            beyond = stats.samples_beyond(n, 95)
            at_or_below = n - beyond
            self.assertGreaterEqual(at_or_below / n, 0.95)
            self.assertLess((at_or_below - 1) / n, 0.95)

    def test_tail_percentile_needs_ten_samples_beyond(self):
        self.assertEqual(stats.tail_percentile(list(range(200)), 95), 189)
        with self.assertRaises(ValueError):
            stats.tail_percentile(list(range(199)), 95)
        with self.assertRaises(ValueError):
            stats.tail_percentile([1.0] * 50, 95)


class OkRatioTest(unittest.TestCase):
    def test_accounting(self):
        self.assertEqual(stats.ok_ratio(10, 0), 1.0)
        self.assertAlmostEqual(stats.ok_ratio(10, 3), 0.7)
        self.assertEqual(stats.ok_ratio(4, 4), 0.0)

    def test_rejects_impossible_counts(self):
        with self.assertRaises(ValueError):
            stats.ok_ratio(0, 0)
        with self.assertRaises(ValueError):
            stats.ok_ratio(10, 11)
        with self.assertRaises(ValueError):
            stats.ok_ratio(10, -1)


def _layers(**over):
    layers = {
        "traced_wall_us": 1000.0, "bookkeeping_us": 0.0, "ingest_us": 400.0,
        "detect_us": 200.0, "match_us": 100.0, "resolve_us": 50.0,
    }
    layers.update(over)
    return layers


class RemainderTest(unittest.TestCase):
    def test_remainder(self):
        self.assertEqual(stats.remainder(10.0, [3.0, 4.0]), 3.0)
        self.assertEqual(stats.remainder(10.0, [6.0, 5.0]), 0.0)
        self.assertEqual(stats.remainder(0.0, []), 0.0)

    def test_never_negative(self):
        rng = random.Random(7)
        for _ in range(1000):
            wall = rng.uniform(0, 100)
            parts = [rng.uniform(0, 60) for _ in range(rng.randrange(5))]
            self.assertGreaterEqual(stats.remainder(wall, parts), 0.0)

    def test_layer_split_adds_up(self):
        split = stats.layer_split(_layers(bookkeeping_us=100.0))
        self.assertEqual(split["wall"], 900.0)
        self.assertEqual(split["deliver"], 150.0)
        self.assertEqual(split["system"], 200.0)
        self.assertEqual(split["warehouse"] + split["alerters"] + split["mqp"] +
                         split["system"], split["wall"])

    def test_layer_split_clamps_overshoot(self):
        split = stats.layer_split(_layers(traced_wall_us=700.0))
        self.assertEqual(split["deliver"], 0.0)
        self.assertEqual(split["system"], 50.0)


class EndToEndTest(unittest.TestCase):
    def raw(self, batches=200):
        return {
            "docs_timed": batches * 10,
            "batch_us": [1000.0 * (1 + i % 20) for i in range(batches)],
            "sub_op_us": [float(i) for i in range(1, 201)],
            "ckpt_us": [2000.0, 4000.0, 3000.0],
            "setup_s": [0.5, 0.7, 0.6],
            "peak_rss_mb": 100.0,
            "attempted": 2300,
            "failed": 23,
        }

    def test_metrics(self):
        m = stats.end_to_end(self.raw())
        self.assertAlmostEqual(m["docs_per_s"][0], 2000 / 2.1)
        self.assertEqual(m["batch_ms_p50"], (10.5, "ms"))
        self.assertEqual(m["batch_ms_p95"], (19.0, "ms"))
        self.assertEqual(m["sub_op_us_p95"], (190.0, "us"))
        self.assertEqual(m["ckpt_ms_p50"], (3.0, "ms"))
        self.assertEqual(m["setup_s"], (0.6, "s"))
        self.assertAlmostEqual(m["ok_ratio"][0], 0.99)

    def test_too_few_batches_for_p95(self):
        with self.assertRaises(ValueError):
            stats.end_to_end(self.raw(batches=150))


if __name__ == "__main__":
    unittest.main()

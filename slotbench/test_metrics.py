"""Unit tests for the benchmark's statistics and span folding.

Run from the repository root:  python3 -m unittest discover -s slotbench
"""

import unittest

import metrics as m


def span(id_, name, start, end, parent=-1):
    return {"id": id_, "name": name, "start_ns": start, "end_ns": end,
            "parent": parent, "slot": -1}


class TailPercentileTest(unittest.TestCase):
    def test_omitted_below_eleven_samples(self):
        self.assertIsNone(m.tail_percentile([]))
        self.assertIsNone(m.tail_percentile(list(range(10))))

    def test_eleven_samples_gives_the_minimum_with_ten_beyond(self):
        tail = m.tail_percentile([5, 1, 3, 2, 4, 9, 8, 7, 6, 11, 10])
        self.assertEqual(tail["value"], 1)
        self.assertEqual(tail["samples"], 11)
        self.assertAlmostEqual(tail["percentile"], 100.0 / 11)

    def test_hundred_samples_is_p90_with_exactly_ten_beyond(self):
        samples = [float(v) for v in range(100, 0, -1)]
        tail = m.tail_percentile(samples)
        self.assertEqual(tail["value"], 90.0)
        self.assertEqual(sum(1 for v in samples if v > tail["value"]), 10)
        self.assertEqual(tail["percentile"], 90.0)
        self.assertEqual(tail["samples"], 100)


class SlotTailTest(unittest.TestCase):
    def test_repeated_passes_do_not_add_slots(self):
        passes = [[float(s) for s in range(10)] for _ in range(12)]
        self.assertIsNone(m.slot_tail(passes))

    def test_each_slot_counts_once_at_its_median(self):
        # Slot 0 is slow once (an outlier pass) and fast in the median.
        passes = [[50.0] + [float(s) for s in range(1, 11)],
                  [0.5] + [float(s) for s in range(1, 11)],
                  [0.5] + [float(s) for s in range(1, 11)]]
        tail = m.slot_tail(passes)
        self.assertEqual(tail["samples"], 11)
        self.assertEqual(tail["value"], 0.5)


class SelfTimeTest(unittest.TestCase):
    def test_leaf_self_time_is_its_duration(self):
        self.assertEqual(m.self_times([span(0, "a", 10, 25)]), {0: 15})

    def test_children_are_subtracted(self):
        spans = [span(0, "root", 0, 100), span(1, "a", 10, 30, 0),
                 span(2, "b", 50, 60, 0)]
        self.assertEqual(m.self_times(spans)[0], 100 - 20 - 10)

    def test_overlapping_children_count_once(self):
        spans = [span(0, "root", 0, 100), span(1, "a", 10, 50, 0),
                 span(2, "b", 40, 70, 0)]
        self.assertEqual(m.self_times(spans)[0], 100 - 60)

    def test_children_are_clipped_to_the_parent(self):
        spans = [span(0, "root", 0, 100), span(1, "late", 90, 130, 0)]
        self.assertEqual(m.self_times(spans)[0], 90)

    def test_grandchildren_only_reduce_their_own_parent(self):
        spans = [span(0, "root", 0, 100), span(1, "a", 0, 40, 0),
                 span(2, "a.inner", 10, 30, 1)]
        selfs = m.self_times(spans)
        self.assertEqual(selfs[0], 60)
        self.assertEqual(selfs[1], 20)
        self.assertEqual(selfs[2], 20)


class FoldTest(unittest.TestCase):
    def test_unattributed_is_the_root_time_no_span_covers(self):
        ms = 1_000_000
        spans = [
            span(0, "bench.traced_run", 0, 100 * ms),
            span(1, "core.plan", 0, 50 * ms, 0),
            span(2, "core.replication", 0, 30 * ms, 1),
            span(3, "sim.admit", 60 * ms, 90 * ms, 0),
            span(4, "sim.admit", 90 * ms, 95 * ms, 0),
            span(5, "bench.setup", 200 * ms, 300 * ms),
            span(6, "trace.generate", 200 * ms, 290 * ms, 5),
        ]
        [(per_name, unattributed)] = m.fold(spans, "bench.traced_run")
        self.assertAlmostEqual(per_name["core.plan"], 0.020)
        self.assertAlmostEqual(per_name["core.replication"], 0.030)
        self.assertAlmostEqual(per_name["sim.admit"], 0.035)
        self.assertNotIn("trace.generate", per_name)
        self.assertAlmostEqual(unattributed, 0.015)
        # Self times and the unattributed remainder add up to the root.
        self.assertAlmostEqual(sum(per_name.values()) + unattributed, 0.100)

    def test_one_entry_per_root(self):
        spans = [span(0, "bench.setup", 0, 10), span(1, "x", 0, 4, 0),
                 span(2, "bench.setup", 20, 40), span(3, "x", 20, 26, 2)]
        folded = m.fold(spans, "bench.setup")
        self.assertEqual(len(folded), 2)
        self.assertAlmostEqual(folded[0][0]["x"], 4e-9)
        self.assertAlmostEqual(folded[1][0]["x"], 6e-9)
        self.assertAlmostEqual(folded[1][1], 14e-9)


if __name__ == "__main__":
    unittest.main()

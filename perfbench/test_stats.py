#!/usr/bin/env python3
"""Self-tests of the benchmark's aggregation: tail-percentile selection,
span self-time arithmetic, digest comparison, and the agreement between
run.py's metric tables and BENCHMARK.json.

    python3 perfbench/test_stats.py
"""

import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.dont_write_bytecode = True
sys.path.insert(0, HERE)
import run  # noqa: E402
import stats  # noqa: E402


def span(id_, parent, name, start, end, folded=False):
    return {"id": id_, "parent": parent, "name": name, "start": start,
            "end": end, "folded": folded}


class TailPercentileTest(unittest.TestCase):
    def test_needs_ten_samples_beyond(self):
        self.assertIsNone(stats.tail_percentile(0))
        self.assertIsNone(stats.tail_percentile(19))
        self.assertEqual(stats.tail_percentile(20), 50.0)
        self.assertEqual(stats.tail_percentile(39), 50.0)
        self.assertEqual(stats.tail_percentile(40), 75.0)
        self.assertEqual(stats.tail_percentile(99), 75.0)
        self.assertEqual(stats.tail_percentile(100), 90.0)
        self.assertEqual(stats.tail_percentile(200), 95.0)
        self.assertEqual(stats.tail_percentile(999), 95.0)
        self.assertEqual(stats.tail_percentile(1000), 99.0)
        self.assertEqual(stats.tail_percentile(10000), 99.9)

    def test_percentile_interpolates(self):
        self.assertEqual(stats.percentile([4, 1, 3, 2], 50), 2.5)
        self.assertEqual(stats.percentile([4, 1, 3, 2], 0), 1)
        self.assertEqual(stats.percentile([4, 1, 3, 2], 100), 4)
        self.assertAlmostEqual(stats.percentile(list(range(11)), 90), 9.0)
        self.assertEqual(stats.median([7.0]), 7.0)
        with self.assertRaises(ValueError):
            stats.median([])


class SelfTimeTest(unittest.TestCase):
    def test_children_are_subtracted_once(self):
        spans = [
            span(1, 0, "setup", 0.0, 10.0),
            span(2, 1, "read", 1.0, 3.0),
            span(3, 1, "open", 4.0, 9.0),
            span(4, 3, "layer", 5.0, 6.0),
            span(5, 3, "layer", 5.5, 7.0),  # overlaps its sibling
        ]
        selfs = stats.self_times(spans)
        self.assertAlmostEqual(selfs[1], 10.0 - 2.0 - 5.0)
        self.assertAlmostEqual(selfs[2], 2.0)
        self.assertAlmostEqual(selfs[3], 5.0 - 2.0)  # union [5, 7]
        self.assertAlmostEqual(selfs[4], 1.0)
        self.assertAlmostEqual(sum(selfs.values()),
                               10.0 + (1.0 + 1.5 - 2.0))  # overlap counted
        self.assertEqual(stats.self_time_samples(spans, "layer"),
                         [1.0, 1.5])
        self.assertEqual(stats.self_time_samples(spans, "missing"), [])
        self.assertEqual(stats.span_durations(spans, "open"), [5.0])

    def test_under_root(self):
        spans = [span(1, 0, "setup", 0.0, 2.0),
                 span(2, 1, "open", 0.0, 2.0),
                 span(3, 2, "read", 0.0, 1.0),
                 span(4, 0, "twin", 3.0, 6.0),
                 span(5, 4, "setup", 3.0, 4.0),
                 span(6, 5, "read", 3.0, 3.5)]
        self.assertEqual([s["id"] for s in stats.under_root(spans, "setup")],
                         [1, 2, 3])

    def test_children_clipped_to_parent(self):
        spans = [span(1, 0, "p", 0.0, 2.0), span(2, 1, "c", 1.0, 5.0)]
        self.assertAlmostEqual(stats.self_times(spans)[1], 1.0)

    def test_folded_child_counts_its_length(self):
        spans = [span(1, 0, "setup", 2.0, 6.0),
                 span(2, 1, "open", 2.5, 6.0),
                 span(3, 2, "read", 2.5, 3.25, folded=True)]
        selfs = stats.self_times(spans)
        self.assertAlmostEqual(selfs[1], 0.5)
        self.assertAlmostEqual(selfs[2], 3.5 - 0.75)
        self.assertAlmostEqual(selfs[3], 0.75)


class DigestTest(unittest.TestCase):
    def test_groups(self):
        groups = {
            "agree": ["00ab", "00ab", "00ab"],
            "differ": ["00ab", "00ac"],
            "alone": ["00ab"],
            "empty": [],
        }
        self.assertEqual(stats.disagreeing_groups(groups),
                         ["alone", "differ", "empty"])
        self.assertEqual(stats.disagreeing_groups({"ok": ["1", "1"]}), [])


class PerLayerTest(unittest.TestCase):
    LAYER_SPANS = [span for _, span in run.BUILD_LAYERS] + ["engine.create"]

    def record(self, setups=(3.0, 3.0, 3.0), layer=(0.25, 0.25, 0.25)):
        """A traced run with one (setup, rebuild) pair per entry of
        `setups`: each setup reads for 0.5 s, and every build layer of the
        i-th rebuild takes layer[i]."""
        spans = []

        def add(parent, name, start, end):
            spans.append(span(len(spans) + 1, parent, name, start, end))
            return len(spans)

        t = 0.0
        for setup, each in zip(setups, layer):
            rebuild = add(0, "rebuild", t, t + each * len(self.LAYER_SPANS))
            for name in self.LAYER_SPANS:
                add(rebuild, name, t, t + each)
                t += each
            top = add(0, "setup", t, t + setup)
            add(top, "data.csv_read", t, t + 0.5)
            add(top, "service.open", t + 0.5, t + setup)
            t += setup
        add(0, "engine.clean_pass", t, t + 1.0)
        add(0, "engine.clean_pass_nocache", t + 1.0, t + 2.0)
        cold = add(0, "clean.cold", t + 2.0, t + 3.0)
        add(cold, "data.csv_write", t + 2.5, t + 3.0)
        # A nested setup (the out-of-core run's in-memory twin) is not one
        # of the setups the layers account for.
        twin = add(0, "inmemory_twin", t + 3.0, t + 13.0)
        nested = add(twin, "setup", t + 3.0, t + 12.0)
        add(nested, "data.csv_read", t + 3.0, t + 11.0)
        return {"spans": spans,
                "values": {"trace.span_cost_s": 1e-7},
                "samples": {"update_incremental_s": [0.1, 0.2]}}

    def test_open_overhead_closes_the_setup_account(self):
        record = self.record()
        layers = run.per_layer(record)
        build = 0.25 * len(self.LAYER_SPANS)
        self.assertAlmostEqual(layers["build_layers_s"], build)
        self.assertAlmostEqual(layers["data.csv_read_s"] + build +
                               layers["service.open_overhead_s"], 3.0)
        self.assertAlmostEqual(layers["service.open_overhead_s"], 0.75)
        self.assertAlmostEqual(layers["trace.overhead_s"],
                               1e-7 * len(record["spans"]))
        self.assertEqual(layers["service.update_incremental"], 2)
        self.assertEqual(layers["service.update_fallback"], 0)

    def test_medians_ignore_one_slow_repeat(self):
        record = self.record(setups=(3.0, 9.0, 3.5), layer=(0.25, 0.75, 0.2))
        layers = run.per_layer(record)
        self.assertAlmostEqual(layers["setup_s"], 3.5)
        self.assertAlmostEqual(layers["fdx.similarity_obs_s"], 0.25)
        self.assertAlmostEqual(layers["service.open_overhead_s"],
                               3.5 - 0.5 - 0.25 * len(self.LAYER_SPANS))

    def test_missing_layer_span_is_an_error(self):
        record = self.record()
        record["spans"] = [s for s in record["spans"]
                           if s["name"] != "fdx.similarity_obs"]
        with self.assertRaises(run.BenchError):
            run.per_layer(record)


class BenchmarkJsonTest(unittest.TestCase):
    def test_metric_tables_match(self):
        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
            bench = json.load(f)
        self.assertEqual([(m["name"], m["unit"]) for m in bench["end_to_end"]],
                         list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in bench["per_layer"]],
                         list(run.PER_LAYER))
        self.assertEqual([w["name"] for w in bench["workloads"]],
                         list(run.WORKLOADS))


if __name__ == "__main__":
    unittest.main()

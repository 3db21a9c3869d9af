"""Tests of the benchmark's own statistics (perfbench/perfstats.py).

    python3 -m unittest discover -s perfbench -p 'test_*.py'

The digest-stability case at the end drives the built perfbench_driver and
is skipped when the build directory does not hold one yet (any run of
perfbench/run.py builds it).
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import perfstats as ps  # noqa: E402


class PercentileRule(unittest.TestCase):
    def test_linear_interpolation(self):
        self.assertEqual(ps.percentile([3, 1, 2], 0.5), 2)
        self.assertEqual(ps.percentile([1, 2, 3, 4], 0.5), 2.5)
        self.assertAlmostEqual(ps.percentile(range(101), 0.9), 90.0)
        self.assertEqual(ps.percentile([7], 0.99), 7)
        with self.assertRaises(ValueError):
            ps.percentile([], 0.5)

    def test_ten_samples_beyond(self):
        self.assertEqual(ps.samples_beyond(100, 0.9), 10)
        self.assertTrue(ps.tail_ok(100, 0.9))
        self.assertFalse(ps.tail_ok(99, 0.9))
        self.assertTrue(ps.tail_ok(1000, 0.99))
        self.assertFalse(ps.tail_ok(999, 0.99))
        self.assertTrue(ps.tail_ok(40, 0.75))
        self.assertFalse(ps.tail_ok(39, 0.75))


def span(name, tid, start, end, detail=""):
    return ps.Span(name, tid, start, end, detail)


class SpanSelfTime(unittest.TestCase):
    def test_children_are_subtracted_once(self):
        spans = [
            span("op", 1, 0, 100),
            span("parse", 1, 10, 30),
            span("run", 1, 40, 90),
            span("inner", 1, 42, 45),
        ]
        self.assertEqual(ps.self_times(spans), {"op": 30, "parse": 20, "run": 47, "inner": 3})

    def test_other_threads_are_not_children(self):
        spans = [span("op", 1, 0, 100), span("work", 2, 10, 60)]
        self.assertEqual(ps.self_times(spans), {"op": 100, "work": 50})

    def test_back_to_back_siblings(self):
        spans = [span("op", 1, 0, 10), span("a", 1, 0, 5), span("b", 1, 5, 10)]
        self.assertEqual(ps.self_times(spans), {"op": 0, "a": 5, "b": 5})

    def test_spans_from_trace_pairs_per_thread(self):
        events = [
            {"ph": "M", "tid": 9, "name": "thread_name"},
            {"ph": "B", "tid": 1, "name": "op", "ts": 1.0, "args": {"detail": "op 4"}},
            {"ph": "B", "tid": 2, "name": "work", "ts": 1.5},
            {"ph": "B", "tid": 1, "name": "parse", "ts": 2.0},
            {"ph": "E", "tid": 1, "name": "parse", "ts": 3.0},
            {"ph": "E", "tid": 2, "name": "work", "ts": 4.0},
            {"ph": "E", "tid": 1, "name": "op", "ts": 5.0},
        ]
        got = sorted((s.name, s.tid, s.start, s.end, s.detail)
                     for s in ps.spans_from_trace(events))
        self.assertEqual(got, [("op", 1, 1000, 5000, "op 4"), ("parse", 1, 2000, 3000, ""),
                               ("work", 2, 1500, 4000, "")])
        with self.assertRaises(ValueError):
            ps.spans_from_trace([{"ph": "E", "tid": 1, "name": "x", "ts": 1.0}])
        with self.assertRaises(ValueError):
            ps.spans_from_trace([{"ph": "B", "tid": 1, "name": "x", "ts": 1.0}])


class WallClockAttribution(unittest.TestCase):
    RANKS = {"op": 0, "call": 1, "dispatch": 2, "enumerate": 3}

    def test_deepest_active_layer_wins_across_threads(self):
        spans = [
            span("op", 1, 0, 100),
            span("call", 1, 10, 90),
            span("dispatch", 2, 20, 80),
            span("enumerate", 3, 30, 50),
            span("enumerate", 4, 40, 60),  # parallel shard: wall time counted once
            span("unranked", 5, 0, 100),
        ]
        layers, rest = ps.attribute((0, 100), spans, self.RANKS)
        self.assertEqual(layers, {"call": 20, "dispatch": 30, "enumerate": 30})
        self.assertEqual(rest, 20)
        self.assertEqual(sum(layers.values()) + rest, 100)

    def test_spans_are_clipped_to_the_window(self):
        spans = [span("dispatch", 2, -50, 30), span("call", 1, 80, 200)]
        layers, rest = ps.attribute((0, 100), spans, self.RANKS)
        self.assertEqual(layers, {"dispatch": 30, "call": 20})
        self.assertEqual(rest, 50)

    def test_empty_window_part_is_unattributed(self):
        layers, rest = ps.attribute((0, 10), [], self.RANKS)
        self.assertEqual((layers, rest), ({}, 10))

    def test_span_index_finds_overlaps(self):
        index = ps.SpanIndex([span("a", 1, 0, 100), span("b", 1, 150, 160),
                              span("c", 1, 300, 310)])
        self.assertEqual([s.name for s in index.overlapping(90, 155)], ["a", "b"])
        self.assertEqual([s.name for s in index.overlapping(200, 250)], [])


class RegistryDeltas(unittest.TestCase):
    BEFORE = {
        "counters": {"engine.dispatches": 10, "serve.errors": 1},
        "histograms": {"queue.wait_ms": {"count": 4, "sum": 2.0}},
    }
    AFTER = {
        "counters": {"engine.dispatches": 25, "serve.errors": 1, "cache.disk.stores": 3},
        "histograms": {"queue.wait_ms": {"count": 9, "sum": 4.5},
                       "cache.disk.write_ms": {"count": 3, "sum": 1.5}},
    }

    def test_counters_and_histograms(self):
        d = ps.registry_delta(self.BEFORE, self.AFTER)
        self.assertEqual(d["counters"], {"engine.dispatches": 15, "serve.errors": 0,
                                         "cache.disk.stores": 3})
        self.assertEqual(d["histograms"]["queue.wait_ms"], (5, 2.5))
        self.assertAlmostEqual(ps.histogram_mean(d, "queue.wait_ms"), 0.5)
        self.assertAlmostEqual(ps.histogram_mean(d, "cache.disk.write_ms"), 0.5)
        self.assertEqual(ps.histogram_mean(d, "never.recorded"), 0.0)

    def test_ratio_of_nothing_is_zero(self):
        self.assertEqual(ps.ratio(3, 0), 0.0)
        self.assertEqual(ps.ratio(3, 4), 0.75)


class DigestStore(unittest.TestCase):
    def test_first_sight_records_and_repeats_compare(self):
        with tempfile.TemporaryDirectory() as d:
            self.assertEqual(ps.check_digest(d, {}, "w", 1, "aa"), [])
            self.assertEqual(ps.check_digest(d, {}, "w", 1, "aa"), [])
            self.assertEqual(len(ps.check_digest(d, {}, "w", 1, "bb")), 1)
            self.assertEqual(ps.check_digest(d, {}, "w", 2, "bb"), [])

    def test_reference_is_checked(self):
        with tempfile.TemporaryDirectory() as d:
            ref = {"w": {"1": "aa"}}
            self.assertEqual(ps.check_digest(d, ref, "w", 1, "aa"), [])
            self.assertEqual(len(ps.check_digest(d, ref, "w", 1, "cc")), 2)
            self.assertEqual(ps.check_digest(d, ref, "w", 3, "cc"), [])


def built_driver():
    root = os.environ.get("CARGO_TARGET_DIR") or os.path.join(os.path.dirname(HERE),
                                                               ".bench_build")
    path = os.path.join(os.path.abspath(root), "perfbench-cmake", "perfbench_driver")
    return path if os.path.exists(path) else None


@unittest.skipIf(built_driver() is None, "perfbench_driver is not built")
class DigestStability(unittest.TestCase):
    """The results digest depends on the workload and seed only: not on
    tracing, nor on the run, nor on how many operations the window held."""

    def digest(self, workload, seed, trace, seconds):
        with tempfile.TemporaryDirectory() as d:
            out = os.path.join(d, "raw.json")
            subprocess.run([built_driver(), "--workload", workload, "--seed", str(seed),
                            "--seconds", str(seconds), "--trace", str(trace), "--out", out],
                           cwd=d, check=True, stderr=subprocess.DEVNULL, timeout=120)
            with open(out) as f:
                raw = json.load(f)
        self.assertEqual(raw["failures"], [])
        self.assertTrue(all(row[5] for row in raw["ops"]))
        return raw["digest"]

    def test_batch_cold(self):
        first = self.digest("batch_cold", 7, 0, 0.5)
        self.assertEqual(self.digest("batch_cold", 7, 1, 1.0), first)
        self.assertNotEqual(self.digest("batch_cold", 8, 0, 0.5), first)

    # serve_mixed digests its first 200 operations: 4 s at 50 ops/s.
    def test_serve_mixed(self):
        first = self.digest("serve_mixed", 7, 0, 4.5)
        self.assertEqual(self.digest("serve_mixed", 7, 1, 5.0), first)

    def test_reference_digests_reproduce(self):
        with open(os.path.join(HERE, "reference_digests.json")) as f:
            reference = json.load(f)
        for workload, seconds in (("batch_cold", 1.0), ("serve_mixed", 4.5)):
            seed, digest = sorted(reference[workload].items())[0]
            self.assertEqual(self.digest(workload, int(seed), 0, seconds), digest)


if __name__ == "__main__":
    unittest.main()

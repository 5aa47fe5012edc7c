#!/usr/bin/env python3
"""Tests of the perf gate tools/bench_compare.py on synthetic documents.

Each case writes a baseline and a candidate `BENCH_t.json` into a
temporary directory and checks the gate's verdict. Run with
`python3 tests/tools/test_bench_compare.py` (stdlib unittest only).
"""

import contextlib
import io
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(
    __file__)), "..", "..", "tools"))

import bench_compare  # noqa: E402

OPTS = {"fail": 15.0, "warn": 5.0, "host_fail": 50.0, "overrides": []}


def metric(value, unit="us", cls="sim", better="lower"):
    return {"value": value, "unit": unit, "class": cls,
            "better": better}


class BenchCompareTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.base_dir = os.path.join(self.tmp.name, "baselines")
        os.mkdir(self.base_dir)

    def tearDown(self):
        self.tmp.cleanup()

    def run_gate(self, base, cand):
        """Verdict (exit status) and output of comparing @cand with
        @base; a None @base leaves the baseline missing."""
        if base is not None:
            with open(os.path.join(self.base_dir, "BENCH_t.json"),
                      "w", encoding="utf-8") as f:
                json.dump(dict(base, bench="t"), f)
        path = os.path.join(self.tmp.name, "BENCH_t.json")
        with open(path, "w", encoding="utf-8") as f:
            json.dump(dict(cand, bench="t"), f)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = bench_compare.compare_file(path, self.base_dir, OPTS)
        return rc, out.getvalue()

    def test_host_metric_30pct_worse_passes(self):
        rc, out = self.run_gate(
            {"speed": {"ops": metric(1000.0, "op/s", "host",
                                     "higher")}},
            {"speed": {"ops": metric(700.0, "op/s", "host",
                                     "higher")}})
        self.assertEqual(rc, 0, out)

    def test_sim_metric_20pct_worse_fails(self):
        rc, out = self.run_gate({"lat_us": metric(100.0)},
                                {"lat_us": metric(120.0)})
        self.assertEqual(rc, 1, out)
        self.assertIn("FAIL  BENCH_t.json:lat_us", out)

    def test_sim_metric_better_direction_is_read(self):
        # 20% lower is an improvement for a lower-is-better metric.
        rc, out = self.run_gate({"lat_us": metric(100.0)},
                                {"lat_us": metric(80.0)})
        self.assertEqual(rc, 0, out)
        self.assertIn("GOOD", out)

    def test_count_never_fails(self):
        rc, out = self.run_gate(
            {"events": metric(100, "count", "count", "lower")},
            {"events": metric(1000, "count", "count", "lower")})
        self.assertEqual(rc, 0, out)
        self.assertIn("INFO", out)

    def test_missing_metadata_fails(self):
        rc, out = self.run_gate({"lat_us": 100.0},
                                {"lat_us": metric(100.0)})
        self.assertEqual(rc, 1, out)
        self.assertIn("no unit/class/better metadata", out)
        rc, out = self.run_gate(
            {"lat_us": metric(100.0)},
            {"lat_us": {"value": 100.0, "unit": "us",
                        "class": "sim"}})
        self.assertEqual(rc, 1, out)
        self.assertIn("no better metadata", out)

    def test_invalid_class_fails(self):
        rc, out = self.run_gate({"lat_us": metric(100.0)},
                                {"lat_us": metric(100.0, cls="wall")})
        self.assertEqual(rc, 1, out)

    def test_mismatched_metadata_fails(self):
        # Same value, but the candidate reclassed the metric: the
        # gate must not silently move it to the loose host bound.
        rc, out = self.run_gate(
            {"ops": metric(1000.0, "op/s", "sim", "higher")},
            {"ops": metric(1000.0, "op/s", "host", "higher")})
        self.assertEqual(rc, 1, out)
        self.assertIn("metadata differs", out)
        rc, out = self.run_gate(
            {"ops": metric(1000.0, "op/s", "sim", "higher")},
            {"ops": metric(1000.0, "op/s", "sim", "lower")})
        self.assertEqual(rc, 1, out)

    def test_missing_baseline_fails(self):
        rc, out = self.run_gate(None, {"lat_us": metric(100.0)})
        self.assertEqual(rc, 1, out)
        self.assertIn("file not found", out)


if __name__ == "__main__":
    unittest.main()

#!/usr/bin/env python3
"""Smoke test of the benchmark, at reduced size (run.py --smoke).

    python3 atcsim_bench/test_smoke.py

Checks, for every workload of BENCHMARK.json and both trace modes, that the
result line names every metric with its unit and that the digest gate
passes; that per-layer counts repeat exactly for one seed and that the
layers fire only where they should; that a different seed changes the
digest, so the gate is not vacuous; that a run which produced no record
counts as failed; and that an unparseable history file is refused rather
than rewritten.
"""
import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SHARDED = {"lu16384_s4"}
MIGRATING = {"mixed512_atcpm"}
# Per-layer metrics that are functions of the seed alone (no host timing).
DETERMINISTIC_UNITS = {"count", "sim_s", "1/sim_s"}


class SmokeTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.history = Path(self.tmp.name) / "history.json"

    def tearDown(self):
        self.tmp.cleanup()

    def bench(self, workload, seed, trace):
        return subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", "0.01", "--trace", str(trace),
             "--smoke", "--history", str(self.history)],
            capture_output=True, text=True, timeout=900)

    def result(self, workload, seed, trace):
        p = self.bench(workload, seed, trace)
        self.assertEqual(p.returncode, 0, p.stderr)
        return json.loads(p.stdout.strip().splitlines()[-1])

    def test_every_metric_is_printed_and_the_gate_passes(self):
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            units = {m["name"]: m["unit"] for m in SPEC[kind]}
            for workload in WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    r = self.result(workload, 1, trace)
                    self.assertEqual(
                        set(r), {"correct", "attempted", "failed", "metrics"})
                    self.assertEqual(
                        {k: v["unit"] for k, v in r["metrics"].items()}, units)
                    for v in r["metrics"].values():
                        self.assertIsInstance(v["value"], (int, float))
                    self.assertTrue(r["correct"])
                    self.assertEqual(r["failed"], 0)
                    self.assertGreaterEqual(r["attempted"], 2)

    def test_layer_counts_repeat_and_fire_where_expected(self):
        units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                a, b = (self.result(workload, 1, 1)["metrics"] for _ in "ab")
                for name, unit in units.items():
                    if unit in DETERMINISTIC_UNITS:
                        self.assertEqual(a[name], b[name], name)
                self.assertEqual(a["pdes.rounds"]["value"] > 0,
                                 workload in SHARDED)
                self.assertEqual(a["control.migrations"]["value"] > 0,
                                 workload in MIGRATING)
                self.assertGreater(a["trace.overhead"]["value"], 0)

    def test_a_different_seed_changes_the_digest(self):
        for seed in (1, 2):
            self.result("mixed512_atcpm", seed, 0)
        records = json.loads(self.history.read_text())["history"]
        first, second = (rec["runs"][0]["digest"] for rec in records)
        self.assertNotEqual(first, second)

    def test_a_run_without_a_record_counts_as_failed(self):
        record = {"digest": {"events": 5}}
        self.assertEqual(run.gate([record, None, record], traced=False),
                         [False, True, False])
        self.assertEqual(run.gate([None, record], traced=False),
                         [True, False])
        self.assertEqual(run.gate([None, None], traced=False), [True, True])

    def test_an_unparseable_history_is_refused(self):
        broken = '{"schema": 1, "history": ['
        self.history.write_text(broken)
        p = self.bench("mixed512_atcpm", 1, 0)
        self.assertNotEqual(p.returncode, 0)
        self.assertEqual(p.stdout.strip(), "")
        self.assertEqual(self.history.read_text(), broken)


if __name__ == "__main__":
    unittest.main()

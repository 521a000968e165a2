#!/usr/bin/env python3
"""Tests of the benchmark itself: the output contract, the traced run's
span coverage, and negative controls proving the correctness gate is
live.

    python3 perfbench/tests/test_gate.py        (about a minute)

Each test runs perfbench/run.py for a second or two of measurement (the
first test to run also builds the benchmark).
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
RUN = os.path.join(BENCH, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run(workload, *extra, seconds=1, trace=0, cwd=ROOT, script=RUN):
    proc = subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", "7",
         "--seconds", str(seconds), "--trace", str(trace), *extra],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=cwd,
        timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    meta = json.loads(lines[-2])["meta"] if len(lines) >= 2 else None
    return proc.returncode, result, meta


class Contract(unittest.TestCase):
    def test_untraced_run_prints_every_end_to_end_metric(self):
        rc, result, meta = run("chip-nat-recovery")
        self.assertEqual(rc, 0)
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(list(result["metrics"]),
                         [m["name"] for m in SPEC["end_to_end"]])
        for m in SPEC["end_to_end"]:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"])
            self.assertGreater(got["value"], 0, m["name"])
        for key in ("commit", "source_digest", "nproc", "compiler",
                    "build_type", "seed", "chunks", "packets_per_chunk",
                    "host_speed", "raw_setup_s", "raw_compile_s",
                    "raw_pkts_per_s"):
            self.assertIn(key, meta)

    def test_traced_run_covers_its_wall_time(self):
        rc, result, meta = run("chip-nat-recovery", trace=1)
        self.assertEqual(rc, 0)
        self.assertEqual(list(result["metrics"]),
                         [m["name"] for m in SPEC["per_layer"]])
        metrics = result["metrics"]
        self.assertGreaterEqual(metrics["trace.coverage"]["value"], 0.95)
        self.assertGreater(metrics["chip.sup.lockups_detected"]["value"], 0)
        self.assertGreater(metrics["checkpoint.snapshots"]["value"], 0)
        self.assertGreater(metrics["checkpoint.restore_s"]["value"], 0)
        self.assertTrue(os.path.isfile(meta["span_file"]))

    def test_benchmark_alone_fails_without_printing_a_result(self):
        alone = os.path.join(ROOT, ".bench_build", "test-alone")
        shutil.rmtree(alone, ignore_errors=True)
        shutil.copytree(BENCH, os.path.join(alone, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), alone)
        try:
            rc, result, _ = run("chip-nat-recovery", cwd=alone,
                                script=os.path.join(alone, "perfbench",
                                                    "run.py"))
        finally:
            shutil.rmtree(alone, ignore_errors=True)
        self.assertNotEqual(rc, 0)
        self.assertIsNone(result)


class NegativeControls(unittest.TestCase):
    def assertGateTrips(self, rc, result, meta):
        self.assertEqual(rc, 1)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertGreater(meta["failed_frac"], 0)
        self.assertTrue(meta["failures"])

    def test_sim_bitflip_on_standalone_valid(self):
        self.assertGateTrips(*run("standalone-valid", "--inject-fault",
                                  "sim-bitflip@40"))

    def test_sdram_bitflip_on_chip(self):
        self.assertGateTrips(*run("chip-nat-recovery", "--fault-schedule",
                                  "sdram-bitflip@3"))


if __name__ == "__main__":
    unittest.main()

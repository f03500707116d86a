#!/usr/bin/env python3
"""Determinism test for the benchmark: one seed twice, then another seed.

Run from the root of a checkout:

    python3 dsmbench/test_determinism.py

It builds the benchmark like run.py does, then for every workload runs a
small traced round (plus one untraced round) three times: seed 1, seed 1
again, seed 2. The two seed-1 runs must agree bit for bit on every
simulated metric and counter; seed 2 must give different ones. Host-clock
metrics are left out of the comparison.
"""

import json
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

WORKLOADS = ("ycsb_direct", "smallbank_sharded", "btree_kv")
OPS = "6000"
HOST_METRICS = ("rt.host_cpu_us_per_op", "rt.ctx_switches_per_op",
                "setup.cluster_s", "setup.load_s",
                "trace.host_overhead_ratio")


def run_once(workload, seed):
    """Returns (simulated end-to-end table, signature, per-layer metrics)."""
    cmd = [run.BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", "0", "--min-rounds", "1", "--trace", "1",
           "--ops", OPS, "--out-dir", run.OUT_DIR]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    if out.returncode != 0:
        raise AssertionError("%s seed %d exited %d:\n%s" %
                             (workload, seed, out.returncode, out.stderr))
    lines = out.stdout.strip().splitlines()
    sim = {}
    signature = None
    for line in lines:
        if line.startswith("SIM_SIGNATURE "):
            signature = line.split()[1]
        parts = line.split()
        if len(parts) == 3 and parts[0].startswith("sim_"):
            sim[parts[0]] = parts[1]
    result = json.loads(lines[-1])
    layers = {k: v["value"] for k, v in result["metrics"].items()
              if k not in HOST_METRICS}
    assert result["correct"], workload
    return sim, signature, layers


class DeterminismTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()

    def test_same_seed_repeats_and_other_seed_differs(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                a = run_once(workload, 1)
                b = run_once(workload, 1)
                c = run_once(workload, 2)
                self.assertIsNotNone(a[1])
                self.assertEqual(a, b)
                self.assertNotEqual(a[1], c[1])
                self.assertNotEqual(a[2], c[2])


if __name__ == "__main__":
    unittest.main()

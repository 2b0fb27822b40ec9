#!/usr/bin/env python3
"""Seed-handling tests for the planner benchmark.

    python3 perfbench/test_lacbench.py

Builds lacbench with run.py's build step, then checks that one seed
always gives byte-identical inputs (circuit specs, netlist hashes, ECO edit
streams) and quality metrics, and that another seed changes the inputs and
quality of lac_heavy and eco.  table1 is the paper's fixed suite, so its
inputs must not depend on the seed.  Takes about three and a half
minutes.
"""
import subprocess
import sys
import unittest
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import run as bench_run  # noqa: E402

BINARY = None
QUALITY = {"fail_frac", "lac_n_foa", "final_n_foa", "foa_removed_pct",
           "lac_n_f"}


def setUpModule():
    global BINARY
    BINARY = bench_run.build()


def lacbench(*args):
    return subprocess.run([str(BINARY), *args], capture_output=True,
                          text=True, check=True).stdout


def dump(workload, seed):
    return lacbench("--workload", workload, "--seed", str(seed), "--dump")


def quality(workload, seed):
    """Per-operation quality lines (times cut off) and the quality metrics."""
    out = lacbench("--workload", workload, "--seed", str(seed),
                   "--seconds", "0", "--trace", "0")
    kept = []
    for line in out.splitlines():
        words = line.split()
        if words[:1] == ["op"]:
            kept.append(" ".join(words[:-2]))
        elif words and words[0] in QUALITY:
            kept.append(line)
    return kept


class SeedHandling(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for workload in ("table1", "lac_heavy", "eco"):
            with self.subTest(workload=workload):
                self.assertEqual(dump(workload, 11), dump(workload, 11))

    def test_other_seed_changes_inputs(self):
        for workload in ("lac_heavy", "eco"):
            with self.subTest(workload=workload):
                self.assertNotEqual(dump(workload, 11), dump(workload, 12))
        self.assertEqual(dump("table1", 11), dump("table1", 12))

    def test_quality_follows_seed(self):
        for workload in ("lac_heavy", "eco"):
            with self.subTest(workload=workload):
                first = quality(workload, 11)
                self.assertTrue(any(line.startswith("op ") for line in first))
                self.assertEqual(first, quality(workload, 11))
                self.assertNotEqual(first, quality(workload, 12))


if __name__ == "__main__":
    unittest.main()

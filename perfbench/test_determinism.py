#!/usr/bin/env python3
"""Checks that the benchmark's accuracy metrics are deterministic.

    python3 perfbench/test_determinism.py

At one seed, served_frac, compressions_per_served, ratio_err_mean and
psnr_db_mean must repeat exactly across runs; across seeds the inputs
differ, so the four must not all repeat. Uses serve_open_32 (the cheapest
workload, and the one whose requests run concurrently on the server) with
a short schedule. Run from anywhere; builds through perfbench/run.py.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DETERMINISTIC = ("served_frac", "compressions_per_served", "ratio_err_mean",
                 "psnr_db_mean")


def accuracy(workload, seed, seconds):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"], result
    return {name: result["metrics"][name]["value"] for name in DETERMINISTIC}


class DeterminismTest(unittest.TestCase):
    def test_repeats_at_one_seed_and_differs_across_seeds(self):
        first = accuracy("serve_open_32", 1, 5)
        again = accuracy("serve_open_32", 1, 5)
        other = accuracy("serve_open_32", 2, 5)
        self.assertEqual(first, again)
        self.assertNotEqual(first, other)


if __name__ == "__main__":
    unittest.main()

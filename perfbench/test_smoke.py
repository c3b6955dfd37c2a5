#!/usr/bin/env python3
"""The benchmark's own test: a tiny-size run of every workload, traced and
untraced, must pass the correctness audit and print every metric
BENCHMARK.json names with its unit (run.py --smoke checks both).

  python3 perfbench/test_smoke.py
"""

import os
import subprocess
import sys
import unittest

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


class SmokeTest(unittest.TestCase):
    def test_every_metric_printed(self):
        proc = subprocess.run([sys.executable, RUN, "--smoke"], stdout=subprocess.PIPE,
                              text=True, timeout=900)
        self.assertEqual(proc.returncode, 0, proc.stdout)
        self.assertIn("smoke: ok", proc.stdout)


if __name__ == "__main__":
    unittest.main()

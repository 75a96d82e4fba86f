"""The benchmark's self-test, run as a subprocess: a declared metric gone
absent, or a result line that no longer parses, fails here."""

import os
import subprocess
import sys

SELFTEST = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                        "selftest.py")


def test_bench_selftest_passes():
    proc = subprocess.run([sys.executable, SELFTEST], capture_output=True,
                          text=True, timeout=600, check=False)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]

"""The benchmark's output checks still read what the program writes.

`bench/selftest.py` runs a small train job, sweep and diverging job, checks
their echo, metrics and snapshot files, and confirms each check refuses a
corrupted copy. Its timings are not gated here.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_selftest_passes():
    result = subprocess.run([sys.executable, "bench/selftest.py"], cwd=ROOT,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stdout + result.stderr

"""The benchmark's output checks still read what the program writes.

`bench/selftest.py` runs a small train job, sweep and diverging job, checks
their echo, metrics and snapshot files, and confirms each check refuses a
corrupted copy. Its timings are not gated here. The selftest runs
untraced, so a second test installs `bench/tracer.py` on a short run.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_selftest_passes():
    result = subprocess.run([sys.executable, "bench/selftest.py"], cwd=ROOT,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stdout + result.stderr


TRACED_RUN = """
import dataclasses, json, sys
sys.path[:0] = ["src", "bench"]
from ramfed import experiments
import tracer
trace = tracer.Tracer()
trace.install()
cfg = experiments.load_config("configs/synthetic_smoke.ini")
cfg.train = dataclasses.replace(cfg.train, global_rounds=2)
cfg.output_dir = experiments.Path(sys.argv[1])
experiments.run_experiment(cfg)
print(json.dumps(trace.metrics()))
"""


def test_tracer_still_wraps_the_program(tmp_path):
    """Every name bench/tracer.py wraps still exists, and a traced run counts what it calls.

    Round 1 relays the initial pair and round 2 the one update it computes, so a
    2-round run makes one `local_update` call."""
    result = subprocess.run([sys.executable, "-c", TRACED_RUN, str(tmp_path / "run")],
                            cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stdout + result.stderr
    metrics = json.loads(result.stdout.splitlines()[-1])
    assert metrics["training.run_round.calls"] == 2
    assert metrics["training.local_update.calls"] == 1

"""The measured process: runs one plan's jobs through ramfed's entry points.

Usage: python3 worker.py PLAN.json RESULT.json TRACE(0|1)

The launching process pins BLAS/OpenMP to one thread in this process's
environment; every config sets workers = 1. The result file holds the wall
time of the jobs, each job's outcome and, for train jobs, the per-round
history that run_experiment returns. With TRACE=1 it also holds the
per-layer counters of tracer.Tracer.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from ramfed import experiments  # noqa: E402


def run_job(job: dict) -> dict:
    if job["kind"] == "sweep":
        rows, summary = experiments.sweep(job["config"], job["alphas"], job["gammas"],
                                          job["repeats"], output_dir=Path(job["out"]))
        return {"summary": str(summary)}
    artifacts = experiments.run_experiment(experiments.load_config(job["config"]))
    rounds = artifacts.history.rounds
    return {"selected": [r.selected_user for r in rounds],
            "t_global": [r.t_global for r in rounds],
            "train_loss": [r.train_loss_selected for r in rounds]}


def main(plan_path: str, result_path: str, trace: str) -> int:
    plan = json.loads(Path(plan_path).read_text(encoding="utf-8"))
    tracer = None
    if trace == "1":
        import tracer as tracing
        tracer = tracing.Tracer()
        tracer.install()
    outcomes = []
    start = time.monotonic()
    for job in plan["jobs"]:
        try:
            outcomes.append({"ok": True, **run_job(job)})
        except Exception as err:  # a failed job is a counted outcome, not a crash
            outcomes.append({"ok": False, "error": type(err).__name__, "message": str(err)})
    wall = time.monotonic() - start
    result = {"wall_s": wall, "jobs": outcomes,
              "layers": tracer.metrics() if tracer else None}
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:4]))

"""Benchmark of ramfed: one workload, one seed, one run.

    python3 bench/run.py --workload fig2c-train --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The run writes its inputs under
.bench_runs/, launches one measured process (bench/worker.py, one BLAS
thread) that runs the jobs through ramfed's public entry points, checks
every output against bench/reference.py, removes its files and prints as
its last line one JSON object: correct, attempted, failed and the metrics
BENCHMARK.json names (end-to-end with --trace 0, per-layer with --trace 1).
"""

from __future__ import annotations

import os

# The measured process inherits this environment: one BLAS/OpenMP thread,
# so its speed does not depend on what else the machine runs at the time.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = ROOT / ".bench_runs"
WORKER_TIMEOUT_S = 160


def completed_runs(plan: dict, result: dict) -> list[tuple[Path, int]]:
    """(output directory, configured rounds) of every config run that finished, in run order."""
    runs = []
    for job, outcome in zip(plan["jobs"], result["jobs"]):
        if not outcome["ok"] or job["kind"] == "diverge":
            continue
        rounds = int(job["sections"]["train"]["global_rounds"])
        if job["kind"] == "train":
            runs.append((Path(job["sections"]["run"]["output_dir"]), rounds))
        else:
            runs += [(Path(job["out"]) / f"alpha_{a}_gamma_{g}" / f"rep_{r}", rounds)
                     for a in job["alphas"] for g in job["gammas"] for r in range(job["repeats"])]
    return runs


def end_to_end(plan: dict, result: dict, launched_ns: int, peak_rss_kb: int) -> dict:
    """Metrics read from the job boundary and the artifacts' modification times.

    run_experiment writes config_echo.ini once set-up is done and before the
    first round, and metrics.csv once the last round is done, so set-up is
    launch -> first echo and round-loop time is echo -> metrics, summed.
    """
    runs = completed_runs(plan, result)
    if not runs:
        raise RuntimeError("no job completed, so no set-up or round time can be read")

    def mtime(path):
        return path.stat().st_mtime_ns

    loop_ns = sum(mtime(out / "metrics.csv") - mtime(out / "config_echo.ini") for out, _ in runs)
    return {
        "wall_s": result["wall_s"],
        "rounds_per_s": sum(rounds for _, rounds in runs) / (loop_ns / 1e9),
        "setup_s": (mtime(runs[0][0] / "config_echo.ini") - launched_ns) / 1e9,
        "peak_rss_mb": peak_rss_kb / 1024.0,
    }


def per_layer(result: dict) -> dict:
    layers = dict(result["layers"])
    layers["training.relayed_update_ratio"] = (
        layers["channel.relay.calls"] / max(1, layers["training.local_update.calls"]))
    layers["trace.wall_s"] = result["wall_s"]
    return layers


def relayed_thetas(plan: dict, run_dir: Path) -> dict:
    """The theta ramfed relays after the replayed rounds, from a short run of
    each train job's config made in this process, apart from the measured one."""
    sys.path.insert(0, str(ROOT / "src"))
    from ramfed import experiments

    thetas = {}
    for index, job in enumerate(plan["jobs"]):
        if job["kind"] != "train":
            continue
        out = run_dir / f"relayed{index}"
        sections = {**job["sections"],
                    "train": {**job["sections"]["train"], "global_rounds": job["replay_rounds"]},
                    "run": {**job["sections"]["run"], "output_dir": out}}
        config = workloads.write_config(run_dir / f"relayed{index}.ini", sections)
        experiments.run_experiment(experiments.load_config(config))
        thetas[index] = reference.read_snapshot(out / "model.bin")["theta"]
    return thetas


def measure(plan: dict, run_dir: Path, trace: bool):
    """Run a plan's jobs in the measured process; returns (result, launch ns, peak RSS kB)."""
    (run_dir / "plan.json").write_text(json.dumps(plan, indent=1), encoding="utf-8")
    result_path = run_dir / "result.json"
    launched_ns = time.time_ns()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(run_dir / "plan.json"),
         str(result_path), "1" if trace else "0"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S)
    peak_rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"measured process exited with {proc.returncode}")
    return json.loads(result_path.read_text(encoding="utf-8")), launched_ns, peak_rss_kb


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "ramfed" / "__init__.py").is_file():
        print(f"no ramfed sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = spec["per_layer" if args.trace else "end_to_end"]

    run_dir = RUNS / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        plan = workloads.make_plan(args.workload, args.seed, args.seconds, run_dir)
        result, launched_ns, peak_rss_kb = measure(plan, run_dir, bool(args.trace))
        values = per_layer(result) if args.trace else end_to_end(plan, result, launched_ns, peak_rss_kb)
        attempted, failed = checks.count_operations(plan, result)
        correct = True
        try:
            checks.verify_plan(plan, result, relayed_thetas(plan, run_dir))
        except checks.CheckFailed as err:
            print(f"check failed: {err}", file=sys.stderr)
            correct = False
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    for job, outcome in zip(plan["jobs"], result["jobs"]):
        if not outcome["ok"]:
            print(f"{job['kind']} job failed: {outcome['error']}: {outcome['message']}", file=sys.stderr)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Self-test of the benchmark's output checks: every check must refuse a corrupted output.

    python3 bench/selftest.py

Runs a small plan (one 3-user train job, a 2x2x2 sweep, the diverging
job) through the measured process once, confirms the checks accept the
clean outputs, then corrupts one output at a time and confirms the checks
refuse it. Prints one line per case and exits 1 if any corruption passes.
"""

from __future__ import annotations

import copy
import os
import shutil
import struct
import sys
from pathlib import Path

import checks
import run
import workloads


def plan_for(run_dir: Path) -> dict:
    train = workloads.smoke(7, run_dir / "train")
    sweep = workloads.smoke(11, run_dir / "sweep")
    diverge = workloads.smoke(1, run_dir / "diverge", model="mlp", lr_theta=1e50)
    return {"workload": "selftest", "jobs": [
        {"kind": "train", "config": workloads.write_config(run_dir / "train.ini", train),
         "sections": train, "replay_rounds": 3},
        {"kind": "sweep", "config": workloads.write_config(run_dir / "sweep.ini", sweep),
         "sections": sweep, "out": str(run_dir / "sweep"),
         "alphas": [1.0, 0.1], "gammas": [0.1, 1.0], "repeats": 2},
        {"kind": "diverge", "config": workloads.write_config(run_dir / "diverge.ini", diverge),
         "sections": diverge},
    ]}


def edit_file(path: Path, change):
    """A corruption that rewrites one file and restores it afterwards."""
    def apply():
        original = path.read_bytes()
        path.write_bytes(change(original))
        return lambda: path.write_bytes(original)
    return apply


def edit_result(result: dict, change):
    def apply():
        saved = copy.deepcopy(result)
        change(result)

        def restore():
            result.clear()
            result.update(saved)
        return restore
    return apply


def move_away(path: Path, parked: Path):
    def apply():
        shutil.move(path, parked)
        return lambda: shutil.move(parked, path)
    return apply


def shift_theta(thetas: dict, index: int, delta: float):
    def apply():
        thetas[index] = thetas[index] + delta
        return lambda: thetas.__setitem__(index, thetas[index] - delta)
    return apply


def bump_value(index: int, delta: float):
    """Add delta to float number `index` of a model.bin payload."""
    def change(blob: bytes) -> bytes:
        n_hidden = struct.unpack_from("<I", blob, 13)[0]
        at = 17 + 4 * n_hidden + 8 + 8 * index
        value = struct.unpack_from("<d", blob, at)[0]
        return blob[:at] + struct.pack("<d", value + delta) + blob[at + 8:]
    return change


def lines(change):
    def rewrite(blob: bytes) -> bytes:
        rows = blob.decode().splitlines()
        return ("\n".join(change(rows)) + "\n").encode()
    return rewrite


def main() -> int:
    run_dir = run.RUNS / f"selftest-{os.getpid()}"
    run_dir.mkdir(parents=True)
    try:
        plan = plan_for(run_dir)
        result, _, _ = run.measure(plan, run_dir, trace=False)
        relayed = run.relayed_thetas(plan, run_dir)
        checks.verify_plan(plan, result, relayed)
        print("[ok] clean outputs pass every check")

        train, cell = run_dir / "train", run_dir / "sweep" / "alpha_0.1_gamma_0.1" / "rep_0"
        swap = lambda rows: [rows[0], rows[2], rows[1], *rows[3:]]  # noqa: E731
        cases = {
            "flipped selection": edit_result(
                result, lambda r: r["jobs"][0]["selected"].__setitem__(5, (r["jobs"][0]["selected"][5] + 1) % 3)),
            "perturbed t_global history": edit_result(
                result, lambda r: r["jobs"][0]["t_global"].__setitem__(1, r["jobs"][0]["t_global"][1] + 1e-6)),
            "perturbed theta in model.bin": edit_file(train / "model.bin", bump_value(0, 1e-6)),
            "perturbed theta in a sweep cell's model.bin": edit_file(cell / "model.bin", bump_value(3, 1e-7)),
            "truncated model.bin header": edit_file(train / "model.bin", lambda b: b[:10]),
            "truncated metrics.csv": edit_file(train / "metrics.csv", lines(lambda rows: rows[:-1])),
            "re-ordered metrics.csv": edit_file(train / "metrics.csv", lines(swap)),
            "final accuracy in metrics.csv off": edit_file(
                train / "metrics.csv", lines(lambda rows: rows[:-1] + [
                    ",".join(rows[-1].split(",")[:1] + ["0.5"] + rows[-1].split(",")[2:])])),
            "frequency snapshot off by one selection": edit_file(
                train / "metrics.csv", lines(lambda rows: rows[:1] + [
                    rows[1].rsplit(",", 1)[0] + ",0.5|0.3|0.2"] + rows[2:])),
            "wrong sweep-cell seed": edit_file(
                cell / "config_echo.ini", lambda b: b.replace(b"init_seed = ", b"init_seed = 1")),
            "sweep summary mean off": edit_file(
                run_dir / "sweep" / "sweep_summary.csv",
                lines(lambda rows: rows[:1] + [",".join(rows[1].split(",")[:4] + ["0.5"] + rows[1].split(",")[5:])] + rows[2:])),
            "sweep cell metrics.csv re-ordered": edit_file(cell / "metrics.csv", lines(swap)),
            "SVG that is not XML": edit_file(train / "decision_boundary.svg", lambda b: b[:-20]),
            "missing chart": move_away(cell / "global_threshold.svg", run_dir / "moved.svg"),
            "relayed theta off the replay": shift_theta(relayed, 0, 1e-6),
            "diverging run that completes": edit_result(
                result, lambda r: r["jobs"][2].update(ok=True)),
        }
        accepted = []
        for name, corrupt in cases.items():
            restore = corrupt()
            try:
                checks.verify_plan(plan, result, relayed)
                accepted.append(name)
                print(f"[FAIL] {name}: the checks accepted it")
            except checks.CheckFailed as err:
                print(f"[ok] {name}: refused ({str(err)[:100]})")
            finally:
                restore()
        checks.verify_plan(plan, result, relayed)
        return 1 if accepted else 0
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

"""Alternating parent/change pairs of the benchmark, summarised for a gain claim.

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload fig2c-train \
        --seeds 201-210 --seconds 25 --slug stacked_updates --claim rounds_per_s

PARENT_DIR and CHANGE_DIR are two checkouts of the repository. Pair k runs
`bench/run.py --trace 0` once in each on the k-th seed, the parent first
on odd-numbered pairs and the change first on even ones, so a drift in
host speed hits both sides alike. The summary is merged, under the
workload's name, into BENCH_<slug>.json in the current directory. The
entry records each side's `git rev-parse HEAD` and whether its tree was
dirty, and per end-to-end metric both sides' runs, their quartiles, the
median relative change, the parent's interquartile range (IQR), the
change's wins and a verdict:

- gain: the change wins at least 9 of 10 pairs (ties count for neither
  side) and its median is better than the parent's by more than the
  parent's IQR;
- worse: the change's median is worse than the parent's by more than the
  bound BENCHMARK.json fixes;
- unresolved: neither, and the parent's IQR is wider than that bound,
  unless every change run is better than every parent run;
- within bound: otherwise.

`--claim METRIC` also records that metric on this workload as the change's
claim. `--trace-seed S` adds one `--trace 1` run per side on seed S, whose
per-layer counts are exact where the program's work is deterministic.
Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

WIN_SHARE = 0.9


def parse_seeds(text: str) -> list[int]:
    """`201-210` or `1,5,9`."""
    if "-" in text:
        first, last = (int(v) for v in text.split("-"))
        return list(range(first, last + 1))
    return [int(v) for v in text.split(",")]


def bench_run(checkout: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    """The JSON line one `bench/run.py` prints last."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout}: bench/run.py exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git(checkout: Path, *args: str) -> str:
    proc = subprocess.run(["git", *args], cwd=checkout, capture_output=True, text=True,
                          check=False)
    return proc.stdout.strip()


def checkout_state(checkout: Path) -> dict:
    """The checkout's `git rev-parse HEAD` (None outside git) and whether its tree is dirty."""
    return {"commit": git(checkout, "rev-parse", "HEAD") or None,
            "dirty": bool(git(checkout, "status", "--porcelain"))}


def summarise(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """Quartiles, wins and the verdict of one metric over paired runs."""
    sign = 1.0 if better == "higher" else -1.0
    gaps = [sign * (c - p) for p, c in zip(parent, change)]
    wins, ties = sum(g > 0 for g in gaps), sum(g == 0 for g in gaps)
    p_q = statistics.quantiles(parent, n=4, method="inclusive")
    c_q = statistics.quantiles(change, n=4, method="inclusive")
    p_med, c_med = statistics.median(parent), statistics.median(change)
    iqr = p_q[2] - p_q[0]
    gain = wins >= WIN_SHARE * len(gaps) and sign * (c_med - p_med) > iqr
    worse = sign * (c_med - p_med) < -bound * abs(p_med)
    separated = min(sign * c for c in change) > max(sign * p for p in parent)
    if gain:
        verdict = "gain"
    elif worse:
        verdict = "worse"
    elif iqr > bound * abs(p_med) and not separated:
        verdict = "unresolved"
    else:
        verdict = "within bound"
    return {
        "better": better, "bound": bound,
        "parent": parent, "change": change,
        "parent_q1_median_q3": [round(v, 4) for v in (p_q[0], p_med, p_q[2])],
        "change_q1_median_q3": [round(v, 4) for v in (c_q[0], c_med, c_q[2])],
        "median_change_rel": round((c_med - p_med) / p_med, 4) if p_med else None,
        "parent_iqr": round(iqr, 4),
        "change_wins": wins, "ties": ties, "pairs": len(gaps),
        "verdict": verdict,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=parse_seeds, help="201-210 or 1,5,9")
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--slug", required=True)
    parser.add_argument("--claim", default=None, help="end-to-end metric claimed on this workload")
    parser.add_argument("--trace-seed", type=int, default=None)
    args = parser.parse_args(argv)
    if len(args.seeds) < 2:
        parser.error("quartiles need at least two pairs")

    spec = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = spec["end_to_end"]
    if args.claim is not None and args.claim not in {m["name"] for m in declared}:
        parser.error(f"--claim {args.claim} is not an end-to-end metric of BENCHMARK.json")
    sides = {"parent": args.parent, "change": args.change}
    checkouts = {side: checkout_state(path) for side, path in sides.items()}
    runs = {"parent": [], "change": []}
    for k, seed in enumerate(args.seeds, start=1):
        order = ("parent", "change") if k % 2 else ("change", "parent")
        for side in order:
            runs[side].append(bench_run(sides[side], args.workload, seed, args.seconds, 0))
        print(f"pair {k}/{len(args.seeds)} seed {seed}: " + ", ".join(
            f"{side} {runs[side][-1]['metrics'][declared[0]['name']]['value']:.4g}"
            for side in sides), file=sys.stderr)

    entry = {
        "checkouts": checkouts,
        "seeds": args.seeds,
        "seconds": args.seconds,
        "all_correct": all(r["correct"] for side in runs.values() for r in side),
        "failed": {side: sum(r["failed"] for r in rs) for side, rs in runs.items()},
        "attempted_per_run": runs["change"][0]["attempted"],
        "metrics": {
            m["name"]: summarise([r["metrics"][m["name"]]["value"] for r in runs["parent"]],
                                 [r["metrics"][m["name"]]["value"] for r in runs["change"]],
                                 m["better"], m["bound"])
            for m in declared
        },
    }
    if args.trace_seed is not None:
        traced = {side: bench_run(path, args.workload, args.trace_seed, args.seconds, 1)
                  for side, path in sides.items()}
        entry["traced"] = {
            "seed": args.trace_seed,
            "correct": {side: t["correct"] for side, t in traced.items()},
            "metrics": {name: {side: round(t["metrics"][name]["value"], 4)
                               for side, t in traced.items()}
                        for name in traced["change"]["metrics"]},
        }

    out = Path(f"BENCH_{args.slug}.json")
    doc = json.loads(out.read_text(encoding="utf-8")) if out.exists() else {}
    doc["harness"] = (f"python3 bench/run.py --workload W --seed S --seconds {args.seconds} "
                      "--trace 0, alternating parent/change pairs (scripts/bench_pairs.py)")
    doc["machine"] = (f"{platform.machine()}, {os.cpu_count()} CPUs, {platform.system()} "
                      f"{platform.release()}, Python {platform.python_version()}")
    doc.setdefault("workloads", {})[args.workload] = entry
    if args.claim is not None:
        result = entry["metrics"][args.claim]
        doc["claim"] = {"workload": args.workload, "metric": args.claim,
                        "rule": f"change wins >= {WIN_SHARE:.0%} of pairs and its median "
                                "beats the parent's by more than the parent's IQR",
                        "seeds": args.seeds, "verdict": result["verdict"],
                        "gain_rule_met": result["verdict"] == "gain"}
    out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())

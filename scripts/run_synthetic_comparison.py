#!/usr/bin/env python3
"""Run a synthetic preset under the risk-aware and risk-neutral objectives.

For the chosen preset this trains twice with identical seeds, data, and
selection sequence: once as configured and once with alpha = gamma = 1
(plain federated averaging). Both runs write full artifact directories;
the final per-class test accuracies are printed side by side.

Usage:
    python scripts/run_synthetic_comparison.py [--preset fig2a] [--seed N]
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from ramfed.experiments import load_config, run_experiment
from ramfed.risk import RiskConfig


def neutral_variant(cfg):
    cfg.resolved["risk"]["alpha"] = "1.0"
    cfg.resolved["risk"]["gamma"] = "1.0"
    cfg.train = replace(cfg.train, risk=RiskConfig(1.0, 1.0))
    cfg.output_dir = cfg.output_dir.with_name(cfg.output_dir.name + "_neutral")
    return cfg


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--preset", default="fig2a",
                        choices=["fig2a", "fig2b", "fig2c", "synthetic_smoke"])
    parser.add_argument("--seed", type=int, default=None)
    args = parser.parse_args()
    config_path = ROOT / "configs" / f"{args.preset}.ini"

    results = {}
    for label, cfg in (
        ("risk-aware", load_config(config_path, seed_override=args.seed)),
        ("risk-neutral", neutral_variant(load_config(config_path, seed_override=args.seed))),
    ):
        print(f"running {label} ({cfg.train.global_rounds} rounds) ...")
        artifacts = run_experiment(cfg)
        final = artifacts.history.evals[-1]
        results[label] = final
        print(f"  artifacts in {artifacts.output_dir}")

    print(f"\n{'':14s} {'overall':>8s}  per-class accuracy")
    for label, final in results.items():
        per_class = " ".join(f"{a:.3f}" for a in final.per_class_acc)
        print(f"{label:14s} {final.overall_acc:8.3f}  [{per_class}]")
    rare = results["risk-aware"].per_class_acc.size - 1
    gap = results["risk-aware"].per_class_acc[rare] - results["risk-neutral"].per_class_acc[rare]
    print(f"\nrarest-class gap (risk-aware minus neutral): {gap:+.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line entry points.

Subcommands:
  train       run one experiment config and write artifacts
  eval        evaluate a parameter snapshot on a config's test set
  sweep       grid of (alpha, gamma) cells with repeats
  gen-data    generate and export a synthetic 2-D dataset as CSV
  check-grad  self-test: analytic vs central-difference gradients
  check-cvar  self-test: closed-form CVaR vs the grid oracle
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import experiments
from .data import InputError, gen_synthetic_2d, save_csv
from .models import (LOGREG, MLP, Batch, ModelArch, ModelParams, finite_diff_grad,
                     init_params, load_params, loss_and_grad)
from .risk import RiskConfig, composite_grads, composite_loss, cvar_discrete, cvar_grid_oracle
from .training import DivergenceError, evaluate


def _cmd_train(args) -> int:
    cfg = experiments.load_config(args.config, seed_override=args.seed)
    if args.output_dir:
        cfg.output_dir = experiments.Path(args.output_dir)
    try:
        artifacts = experiments.run_experiment(cfg)
    except DivergenceError as err:
        print(f"run diverged: {err}", file=sys.stderr)
        return 1
    final = artifacts.history.evals[-1] if artifacts.history.evals else None
    print(f"metrics: {artifacts.metrics_path}")
    print(f"config echo: {artifacts.echo_path}")
    print(f"snapshot: {artifacts.snapshot_path}")
    for chart in artifacts.chart_paths:
        print(f"chart: {chart}")
    if final is not None:
        per_class = " ".join(f"{a:.3f}" for a in final.per_class_acc)
        print(f"final round {final.round}: overall {final.overall_acc:.4f}, "
              f"per-class [{per_class}], t {final.global_t:.4f}")
    return 0


def _cmd_eval(args) -> int:
    cfg = experiments.load_config(args.config, seed_override=args.seed)
    try:
        params = load_params(args.params)
        if params.arch != cfg.train.arch:
            raise ValueError(f"holds {params.arch}, config {args.config} needs {cfg.train.arch}")
    except (OSError, ValueError) as err:
        raise InputError(f"snapshot {args.params}: {err}") from None
    metrics = evaluate(params, experiments.build_test_set(cfg))
    per_class = " ".join(f"{a:.4f}" for a in metrics.per_class_acc)
    print(f"overall accuracy: {metrics.overall_acc:.4f}")
    print(f"per-class accuracy: [{per_class}]")
    return 0


def _cmd_sweep(args) -> int:
    alphas = [v for v in args.alpha.split(",") if v.strip()]  # sweep reads and checks them
    gammas = [v for v in args.gamma.split(",") if v.strip()]
    rows, summary_path = experiments.sweep(
        args.config, alphas, gammas, args.repeats,
        output_dir=experiments.Path(args.output_dir) if args.output_dir else None,
    )
    print(f"summary: {summary_path}")
    for row in rows:
        print(f"alpha={row['alpha']} gamma={row['gamma']} "
              f"overall={row['overall_mean']:.4f}+-{row['overall_std']:.4f} "
              f"failures={row['failures']}")
    return 0


def _cmd_gen_data(args) -> int:
    cfg = experiments.load_config(args.config, seed_override=args.seed)
    if cfg.dataset.kind != experiments.SYNTHETIC:
        raise InputError("gen-data only applies to synthetic2d configs")
    ds = cfg.dataset
    data = gen_synthetic_2d(ds.num_classes, ds.per_class, ds.spread, ds.seed)
    save_csv(data, args.out)
    print(f"wrote {len(data)} samples to {args.out}")
    return 0


def _random_instance(rng) -> tuple[ModelParams, Batch, float, RiskConfig]:
    input_dim = int(rng.integers(2, 8))
    num_classes = int(rng.integers(2, 6))
    if rng.random() < 0.5:
        arch = ModelArch(LOGREG, input_dim, num_classes)
    else:
        arch = ModelArch(MLP, input_dim, num_classes, (int(rng.integers(2, 9)),))
    params = init_params(arch, int(rng.integers(0, 2**31)))
    rows = int(rng.integers(1, 9))
    batch = Batch(rng.standard_normal((rows, input_dim)),
                  rng.integers(0, num_classes, size=rows))
    cfg = RiskConfig(alpha=float(rng.uniform(0.1, 1.0)),
                     gamma=float(rng.choice([0.0, 0.3, 1.0])))
    return params, batch, float(rng.uniform(-1.0, 3.0)), cfg


def check_grad(trials: int = 100, seed: int = 12345, eps: float = 1e-6) -> float:
    """Worst relative error of the composite (theta, t) gradients vs
    central differences, over random instances away from the hinge kink.

    The composite depends on theta only through the batch loss f, so the
    theta reference is its central difference in f times the model's
    finite-difference gradient of f."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    done = 0
    while done < trials:
        params, batch, t, cfg = _random_instance(rng)
        f, grad_f = loss_and_grad(params, batch)
        if abs(f - t) < 1e-3:  # keep clear of the kink
            continue
        done += 1
        grad_theta, grad_t = composite_grads(f, grad_f, t, cfg)
        dc_df = (composite_loss(f + eps, t, cfg) - composite_loss(f - eps, t, cfg)) / (2 * eps)
        fd_theta = dc_df * finite_diff_grad(params, batch, eps)
        fd_t = (composite_loss(f, t + eps, cfg) - composite_loss(f, t - eps, cfg)) / (2 * eps)

        mask = np.abs(grad_theta) > 1e-8
        if mask.any():
            rel = np.abs(fd_theta[mask] - grad_theta[mask]) / np.abs(grad_theta[mask])
            worst = max(worst, float(rel.max()))
        if abs(grad_t) > 1e-8:
            worst = max(worst, abs(fd_t - grad_t) / abs(grad_t))
    return worst


def check_cvar(trials: int = 1000, seed: int = 54321, step: float = 1e-6) -> float:
    """Worst |closed form - grid oracle| over random discrete instances."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        n = int(rng.integers(1, 11))
        values = rng.uniform(-10.0, 10.0, size=n)
        probs = rng.uniform(0.05, 1.0, size=n)
        probs /= probs.sum()
        alpha = float(rng.uniform(0.15, 1.0))
        closed = cvar_discrete(values, probs, alpha)
        gridded = cvar_grid_oracle(values, probs, alpha,
                                   float(values.min()), float(values.max()), step)
        worst = max(worst, abs(closed - gridded))
    return worst


def _cmd_check_grad(args) -> int:
    worst = check_grad(trials=args.trials)
    ok = worst <= 1e-4
    print(f"check-grad: {args.trials} instances, worst relative error {worst:.3e} "
          f"[{'ok' if ok else 'FAIL'}]")
    return 0 if ok else 1


def _cmd_check_cvar(args) -> int:
    worst = check_cvar(trials=args.trials)
    ok = worst <= 1e-5
    print(f"check-cvar: {args.trials} instances, worst |closed - grid| {worst:.3e} "
          f"[{'ok' if ok else 'FAIL'}]")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ramfed", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="run one experiment config")
    p.add_argument("config")
    p.add_argument("--seed", type=int, default=None, help="override all run seeds")
    p.add_argument("--output-dir", default=None)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="evaluate a parameter snapshot")
    p.add_argument("config")
    p.add_argument("params")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("sweep", help="alpha/gamma grid with repeats")
    p.add_argument("config")
    p.add_argument("--alpha", required=True, help="comma-separated levels")
    p.add_argument("--gamma", required=True, help="comma-separated trade-offs")
    p.add_argument("--repeats", type=int, default=1)
    p.add_argument("--output-dir", default=None)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("gen-data", help="export a synthetic dataset as CSV")
    p.add_argument("config")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_gen_data)

    p = sub.add_parser("check-grad", help="gradient self-test")
    p.add_argument("--trials", type=int, default=100)
    p.set_defaults(func=_cmd_check_grad)

    p = sub.add_parser("check-cvar", help="CVaR oracle self-test")
    p.add_argument("--trials", type=int, default=1000)
    p.set_defaults(func=_cmd_check_cvar)
    return parser


def main(argv=None) -> int:
    """Run one subcommand; exit 1 on divergence or a failed self-test, 2 on bad input."""
    args = build_parser().parse_args(argv)
    try:
        for flag, low in (("seed", 0), ("trials", 1)):  # a self-test of 0 trials checks nothing
            value = getattr(args, flag, None)
            if value is not None and value < low:
                raise InputError(f"--{flag} must be at least {low}, got {value}")
        return args.func(args)
    except (InputError, OSError) as err:  # every path the CLI opens is the user's
        print("error:", *str(err).splitlines(), file=sys.stderr)  # configparser's span lines
        return 2


if __name__ == "__main__":
    sys.exit(main())

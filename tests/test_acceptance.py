"""Release criteria, one test per criterion.

Each test prints a single PASS/FAIL line with the measured quantity (run
with ``-s`` to see them). The scaled image-benchmark criterion needs the
MNIST IDX files and reports an explicit skip when they are absent.
"""

import os
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from ramfed.channel import EXPLICIT, TAIL_THREE, RandomAccessChannel, selection_weights
from ramfed.cli import check_cvar, check_grad
from ramfed.data import (
    PartitionSpec,
    batches,
    gen_synthetic_2d,
    parse_idx,
    partition_heterogeneous,
    partition_indices,
    write_idx,
)
from ramfed.experiments import load_config, run_experiment
from ramfed.models import LOGREG, MLP, ModelArch, ModelParams, init_params, loss_and_grad
from ramfed.risk import RiskConfig, cvar_discrete, global_risk_objective, max_loss_limit_check
from ramfed.training import (
    Seeds,
    TrainConfig,
    evaluate,
    run_round,
    train,
    user_shuffle_seed,
)

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"

# Calibrated synthetic fixture shared by the reproduction criteria: the
# values not pinned by the criteria themselves (spread, shard size, step
# sizes, batch handling) match configs/fig2a.ini.
FIG2A = dict(spread=1.0, per_class=300, batch=300, lr_theta=3e-5, lr_t=3e-5,
             rounds=2000, epochs=5)
SKEW = [0.5, 0.4, 0.1]
SKEW_WEIGHTS = selection_weights(EXPLICIT, len(SKEW), weights=SKEW)


def report(name: str, ok: bool, detail: str) -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name}: {detail}")


def synthetic_run(seed: int, alpha: float, gamma: float, rounds=None):
    fx = FIG2A
    data = gen_synthetic_2d(3, fx["per_class"], fx["spread"], seed)
    shards = partition_heterogeneous(data, PartitionSpec(3, 67, 67, seed=seed + 50))
    test = gen_synthetic_2d(3, fx["per_class"], fx["spread"], seed + 900001)
    cfg = TrainConfig(
        arch=ModelArch(LOGREG, 2, 3),
        global_rounds=rounds or fx["rounds"], local_epochs=fx["epochs"],
        batch_size=fx["batch"], lr_theta=fx["lr_theta"], lr_t=fx["lr_t"],
        risk=RiskConfig(alpha, gamma), seeds=Seeds(seed, seed + 1, seed + 2),
    )
    state, _ = train(shards, RandomAccessChannel(SKEW_WEIGHTS, cfg.seeds.ram), cfg)
    return evaluate(state.theta_global, test).per_class_acc


def test_cvar_oracle_equivalence():
    """Closed-form CVaR vs the threshold-grid oracle, plus exact boundaries."""
    start = time.perf_counter()
    worst = check_cvar(trials=1000, step=1e-6)

    rng = np.random.default_rng(99)
    worst_mean = worst_max = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 11))
        values = rng.uniform(-10, 10, size=n)
        probs = rng.uniform(0.05, 1.0, size=n)
        probs /= probs.sum()
        worst_mean = max(
            worst_mean,
            abs(cvar_discrete(values, probs, 1.0) - float(np.dot(values, probs))),
        )
        alpha = float(probs.min()) * 0.9
        worst_max = max(
            worst_max, abs(cvar_discrete(values, probs, alpha) - float(values.max()))
        )
    elapsed = time.perf_counter() - start

    ok = worst <= 1e-5 and worst_mean <= 1e-12 and worst_max <= 1e-12 and elapsed < 10
    report(
        "cvar oracle equivalence",
        ok,
        f"grid gap {worst:.2e} (<=1e-5), mean gap {worst_mean:.2e}, "
        f"max gap {worst_max:.2e} (<=1e-12), {elapsed:.1f}s (<10s)",
    )
    assert ok


def test_composite_gradient_check():
    """Analytic composite gradients vs central differences in (theta, t)."""
    start = time.perf_counter()
    worst = check_grad(trials=100)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-4 and elapsed < 30
    report("composite gradient check", ok,
           f"worst rel err {worst:.2e} (<=1e-4), {elapsed:.1f}s (<30s)")
    assert ok


def test_risk_neutral_trajectory_matches_reference_fedavg():
    """gamma=1 trajectory equality with an independent FedAvg loop, 200 rounds."""
    rounds = 200
    fx = FIG2A
    data = gen_synthetic_2d(3, fx["per_class"], fx["spread"], 11)
    shards = partition_heterogeneous(data, PartitionSpec(3, 67, 67, seed=61))
    arch = ModelArch(LOGREG, 2, 3)
    cfg = TrainConfig(
        arch=arch, global_rounds=rounds, local_epochs=fx["epochs"],
        batch_size=fx["batch"], lr_theta=fx["lr_theta"], lr_t=fx["lr_t"],
        risk=RiskConfig(1.0, 1.0), seeds=Seeds(11, 12, 13),
    )

    # Engine path, round by round, recording the global vector each round.
    channel = RandomAccessChannel(SKEW_WEIGHTS, cfg.seeds.ram)
    state, _ = train(shards, channel, replace(cfg, global_rounds=0))
    engine_trajectory = []
    for _ in range(rounds):
        run_round(state, channel, cfg)
        engine_trajectory.append(state.theta_global.values.copy())

    # Independent reference: plain SGD on the batch loss, same streams.
    thetas = [init_params(arch, cfg.seeds.init).values.copy() for _ in shards]
    rng = np.random.default_rng(cfg.seeds.ram)
    cum = np.cumsum(np.asarray(SKEW) / np.sum(SKEW))
    worst = 0.0
    for n in range(rounds):
        sel = min(int(np.searchsorted(cum, rng.random(), side="right")), 2)
        broadcast = thetas[sel].copy()
        worst = max(worst, float(np.abs(engine_trajectory[n] - broadcast).max()))
        for i, shard in enumerate(shards):
            th = broadcast.copy()
            seed = user_shuffle_seed(cfg.seeds.shuffle, i)
            for h in range(cfg.local_epochs):
                for b in batches(shard, cfg.batch_size, seed, n * cfg.local_epochs + h):
                    _, grad = loss_and_grad(ModelParams(arch, th), b)
                    th -= cfg.lr_theta * grad
            thetas[i] = th

    ok = worst <= 1e-12
    report("risk-neutral reduction (trajectory)", ok,
           f"max per-coordinate gap over {rounds} rounds {worst:.2e} (<=1e-12)")
    assert ok


def test_alpha_one_objective_reduction():
    """At alpha=1 the minimized global objective equals the weighted mean."""
    rng = np.random.default_rng(123)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 12))
        losses = rng.uniform(-5, 5, size=n)
        probs = rng.uniform(0.01, 1.0, size=n)
        probs /= probs.sum()
        gamma = float(rng.uniform(0, 1))
        value, _ = global_risk_objective(losses, probs, RiskConfig(1.0, gamma))
        worst = max(worst, abs(value - float(np.dot(losses, probs))))
    ok = worst <= 1e-12
    report("risk-neutral reduction (objective)", ok, f"worst gap {worst:.2e} (<=1e-12)")
    assert ok


def test_max_loss_limit():
    """Small-alpha global objective equals the weighted worst-user loss."""
    rng = np.random.default_rng(321)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 12))
        losses = rng.uniform(-5, 5, size=n)
        probs = rng.uniform(0.01, 1.0, size=n)
        probs /= probs.sum()
        alpha = float(probs.min() * rng.uniform(0.05, 1.0))
        cfg = RiskConfig(alpha, float(rng.uniform(0, 1)))
        value = max_loss_limit_check(losses, probs, cfg)  # asserts <=1e-12 inside
        objective, _ = global_risk_objective(losses, probs, cfg)
        worst = max(worst, abs(value - objective))
    ok = worst <= 1e-12
    report("max-loss limit", ok, f"worst gap {worst:.2e} (<=1e-12)")
    assert ok


def test_synthetic_rare_user_reproduction():
    """Skewed 3-user fixture: risk-aware classifies every pattern, the
    risk-neutral baseline keeps failing the rare user's pattern."""
    start = time.perf_counter()
    seeds = range(10)
    risk = np.array([synthetic_run(s, 0.1, 0.1) for s in seeds])
    neutral = np.array([synthetic_run(s, 1.0, 1.0) for s in seeds])
    elapsed = time.perf_counter() - start

    risk_hits = int(np.sum(risk.min(axis=1) >= 0.90))
    neutral_fails = int(np.sum(neutral[:, 2] <= 0.60))
    ok = risk_hits >= 9 and neutral_fails >= 7 and elapsed < 120
    report(
        "synthetic rare-user reproduction",
        ok,
        f"risk-aware all-classes>=0.90 in {risk_hits}/10 (need >=9), "
        f"neutral rare-class<=0.60 in {neutral_fails}/10 (need >=7), "
        f"{elapsed:.0f}s (<120s)",
    )
    assert ok


def _mnist_dir():
    candidates = []
    env = os.environ.get("RAMFED_DATA_DIR", "")
    if env:
        candidates += [Path(env) / "mnist", Path(env)]
    candidates += [Path(__file__).resolve().parents[1] / "data" / "mnist"]
    for directory in candidates:
        if (directory / "train-images-idx3-ubyte").exists() or (
            directory / "train-images-idx3-ubyte.gz"
        ).exists():
            return directory
    return None


def test_scaled_image_benchmark_trend():
    """Desk-scale skewed image benchmark: the rare class's test accuracy
    under the risk-aware objective beats the neutral baseline by >=10 points,
    averaged over 3 seeds."""
    directory = _mnist_dir()
    if directory is None:
        pytest.skip(
            "MNIST IDX files not found; run scripts/fetch_mnist.py and set "
            "RAMFED_DATA_DIR, then re-run"
        )

    start = time.perf_counter()
    gaps = []
    rare_pairs = []
    for seed in (0, 1, 2):
        per = {}
        for label, (alpha, gamma) in (("risk", (0.3, 0.3)), ("neutral", (1.0, 1.0))):
            cfg = load_config(CONFIG_DIR / "mnist_fig3_desk.ini", seed_override=seed)
            cfg.dataset = cfg.dataset.__class__(
                kind=cfg.dataset.kind, num_classes=10, dir=str(directory),
                subset=cfg.dataset.subset, test_subset=cfg.dataset.test_subset,
                subset_seed=cfg.dataset.subset_seed,
            )
            cfg.train = TrainConfig(
                arch=cfg.train.arch, global_rounds=cfg.train.global_rounds,
                local_epochs=cfg.train.local_epochs, batch_size=cfg.train.batch_size,
                lr_theta=cfg.train.lr_theta, lr_t=cfg.train.lr_t,
                risk=RiskConfig(alpha, gamma), seeds=cfg.train.seeds,
            )
            cfg.output_dir = Path("/tmp/ramfed_acceptance") / f"desk_{label}_{seed}"
            cfg.eval_every = 0  # final evaluation only
            artifacts = run_experiment(cfg)
            final = artifacts.history.evals[-1]
            per[label] = float(final.per_class_acc[9])
        rare_pairs.append((per["risk"], per["neutral"]))
        gaps.append(per["risk"] - per["neutral"])
    elapsed = time.perf_counter() - start

    mean_gap = float(np.mean(gaps))
    ok = mean_gap >= 0.10
    report(
        "scaled image benchmark trend",
        ok,
        f"rare-class accuracy (risk, neutral) per seed {rare_pairs}, "
        f"mean gap {mean_gap:+.3f} (need >=+0.10), {elapsed:.0f}s "
        "(target <900s on a desktop-class machine)",
    )
    assert ok


def test_selection_statistics():
    """Empirical relay frequencies within binomial bounds; lag-1 independence."""
    start = time.perf_counter()
    n = 100_000
    weights = selection_weights(TAIL_THREE, 30, 0.9)
    channel = RandomAccessChannel(weights, 2027)
    draws = np.array([channel.relay(30) for _ in range(n)])
    freq = np.bincount(draws, minlength=30) / n
    bound = 3.0 * np.sqrt(weights * (1.0 - weights) / n)
    gaps = np.abs(freq - weights)
    within = bool(np.all(gaps <= bound))

    table = np.zeros((30, 30))
    for a, b in zip(draws[:-1], draws[1:]):
        table[a, b] += 1
    # Drop empty rows/columns so the contingency test is well posed.
    used = table.sum(axis=1) > 0
    table = table[used][:, used]
    _, p_value, _, _ = stats.chi2_contingency(table)
    elapsed = time.perf_counter() - start

    ok = within and p_value > 1e-3 and elapsed < 5
    report(
        "selection statistics",
        ok,
        f"all 30 frequencies within 3-sigma (worst gap {gaps.max():.4f}), "
        f"lag-1 chi-square p={p_value:.3f} (>1e-3), {elapsed:.1f}s (<5s)",
    )
    assert ok


def test_data_plumbing():
    """IDX round-trips, partition invariants at benchmark shapes, batching."""
    start = time.perf_counter()
    label_fixture = bytes([0, 0, 8, 1, 0, 0, 0, 2, 3, 7])
    image_fixture = bytes(
        [0, 0, 8, 3, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0, 2, 0, 255, 0, 255]
    )
    idx_ok = all(write_idx(parse_idx(b)) == b for b in (label_fixture, image_fixture))

    rng = np.random.default_rng(5)
    from ramfed.data import Dataset

    data = Dataset(rng.standard_normal((1200, 3)),
                   np.repeat(np.arange(10), 120), 10)
    partition_ok = True
    for r in (80, 90):
        spec = PartitionSpec(30, 90, r, seed=4)
        shards = partition_indices(data, spec)
        merged = np.sort(np.concatenate(shards))
        partition_ok &= bool(np.array_equal(merged, np.arange(len(data))))
        n_freq = spec.num_frequent_classes(10)
        for user, idx in enumerate(shards):
            labels = set(data.labels[idx].tolist())
            expected = set(range(n_freq)) if user < 27 else set(range(n_freq, 10))
            partition_ok &= labels <= expected

    small = Dataset(rng.standard_normal((53, 2)), np.zeros(53, dtype=int), 2)
    chunks = batches(small, 8, seed=3, epoch=1)
    stacked = np.concatenate([b.features for b in chunks])
    batch_ok = bool(
        np.array_equal(
            stacked[np.lexsort(stacked.T)], small.features[np.lexsort(small.features.T)]
        )
    )
    elapsed = time.perf_counter() - start

    ok = idx_ok and partition_ok and batch_ok and elapsed < 5
    report(
        "data plumbing",
        ok,
        f"idx round-trip {idx_ok}, partition invariants {partition_ok}, "
        f"batch coverage {batch_ok}, {elapsed:.1f}s (<5s)",
    )
    assert ok


def test_run_determinism(tmp_path):
    """A bundled config run three times is byte-identical."""
    config = CONFIG_DIR / "synthetic_smoke.ini"
    outputs = []
    for name in ("a", "b", "c"):
        cfg = load_config(config)
        cfg.output_dir = tmp_path / name
        run_experiment(cfg)
        outputs.append((tmp_path / name / "metrics.csv").read_bytes())
    ok = outputs[0] == outputs[1] == outputs[2]
    report("run determinism", ok,
           f"second run identical: {outputs[0] == outputs[1]}, "
           f"third run identical: {outputs[0] == outputs[2]}")
    assert ok

"""The benchmark's workloads: the configs and data each run feeds ramfed.

Every input is a pure function of (workload, seed, seconds). `seconds`
fixes how much work a run does through a constant rate measured once on a
2-core machine, never through the speed of the machine a run lands on, so
two runs with the same arguments always do the same work.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

import reference

# Work per second of requested run length, measured once (2-core Xeon
# VM, one BLAS thread): fig2c rounds take ~20 ms, MNIST-shaped MLP rounds
# ~0.75 s, one smoke sweep of 100 cells 8-12 s.
FIG2C_ROUNDS_PER_SECOND = 50
# fig2c's step size is small: below ~400 rounds some seeds are not yet above chance.
FIG2C_MIN_ROUNDS = 400
MNIST_ROUNDS_PER_SECOND = 1.25
# The theta of round r was trained in round r - 1, so a few rounds are needed.
MNIST_MIN_ROUNDS = 5
SWEEP_SECONDS = 8.0

SWEEP_ALPHAS = (1.0, 0.3, 0.2, 0.1)
SWEEP_GAMMAS = (0.0, 0.1, 0.2, 0.3, 1.0)
SWEEP_REPEATS = 5

MNIST_TRAIN_ROWS = 12_000
MNIST_TEST_ROWS = 2_000

WORKLOADS = ("fig2c-train", "mnist-mlp-train", "smoke-sweep")


def ini(sections: dict) -> str:
    lines = []
    for name, keys in sections.items():
        lines.append(f"[{name}]")
        lines += [f"{key} = {value}" for key, value in keys.items()]
        lines.append("")
    return "\n".join(lines)


def fig2c(seeds, rounds: int, out: Path) -> dict:
    """configs/fig2c.ini with its rounds cut and its seeds drawn from the run seed."""
    return {
        "dataset": {"kind": "synthetic2d", "num_classes": 3, "per_class": 400,
                    "spread": 1.0, "seed": seeds[0], "test_per_class": 200},
        "partition": {"num_users": 30, "frequent_fraction": 80,
                      "frequent_pattern_fraction": 67, "seed": seeds[1]},
        "ram": {"kind": "geometric", "param": 0.85},
        "train": {"global_rounds": rounds, "local_epochs": 5, "batch_size": 64,
                  "lr_theta": 3e-5, "lr_t": 3e-5, "model": "logreg",
                  "init_seed": seeds[2], "ram_seed": seeds[3], "shuffle_seed": seeds[4]},
        "risk": {"alpha": 0.1, "gamma": 0.1},
        "run": {"output_dir": str(out), "eval_every": 25, "workers": 1},
    }


def mnist(seeds, rounds: int, data_dir: Path, out: Path) -> dict:
    """The shapes of configs/mnist_fig3_desk.ini over the IDX fixture, rounds cut."""
    return {
        "dataset": {"kind": "mnist", "dir": str(data_dir), "subset": 10_000,
                    "test_subset": MNIST_TEST_ROWS, "subset_seed": seeds[0]},
        "partition": {"num_users": 10, "frequent_fraction": 80,
                      "frequent_pattern_fraction": 90, "seed": seeds[1]},
        "ram": {"kind": "tail_three", "param": 0.9},
        "train": {"global_rounds": rounds, "local_epochs": 5, "batch_size": 64,
                  "lr_theta": 0.01, "lr_t": 1e-3, "model": "mlp", "hidden_dims": 64,
                  "init_seed": seeds[2], "ram_seed": seeds[3], "shuffle_seed": seeds[4]},
        "risk": {"alpha": 0.3, "gamma": 0.3},
        "run": {"output_dir": str(out), "eval_every": 5, "workers": 1},
    }


def smoke(init_seed: int, out: Path, model: str = "logreg", lr_theta: float = 0.02) -> dict:
    """configs/synthetic_smoke.ini; a sweep re-derives every seed from init_seed."""
    train = {"global_rounds": 40, "local_epochs": 2, "batch_size": 32,
             "lr_theta": lr_theta, "lr_t": 0.002, "model": model,
             "init_seed": init_seed, "ram_seed": 2, "shuffle_seed": 3}
    if model == "mlp":
        train["hidden_dims"] = "8,8"
    return {
        "dataset": {"kind": "synthetic2d", "num_classes": 3, "per_class": 40,
                    "spread": 0.6, "seed": 2},
        "partition": {"num_users": 3, "frequent_fraction": 67,
                      "frequent_pattern_fraction": 67, "seed": 3},
        "ram": {"kind": "explicit", "weights": "0.5, 0.4, 0.1"},
        "train": train,
        "risk": {"alpha": 0.1, "gamma": 0.1},
        "run": {"output_dir": str(out), "eval_every": 10, "smooth_window": 5, "workers": 1},
    }


def write_mnist_fixture(directory: Path, seed: int) -> None:
    """MNIST-shaped IDX files whose images depend on their class.

    Each class owns a random 28x28 on/off template (a quarter of the
    pixels on). An image lights its class's pixels at 120..255, adds
    0..60 background noise everywhere and switches a tenth of its pixels
    to the opposite state, so a model can learn the classes but not
    trivially.
    """
    rng = np.random.default_rng(seed)
    templates = rng.random((10, 28, 28)) < 0.25
    directory.mkdir(parents=True, exist_ok=True)
    for prefix, rows in (("train", MNIST_TRAIN_ROWS), ("t10k", MNIST_TEST_ROWS)):
        labels = rng.integers(0, 10, size=rows).astype(np.uint8)
        lit = templates[labels] ^ (rng.random((rows, 28, 28)) < 0.1)
        images = rng.integers(0, 61, size=(rows, 28, 28))
        images += lit * rng.integers(120, 196, size=(rows, 28, 28))
        reference.write_idx_file(directory / f"{prefix}-images-idx3-ubyte", images)
        reference.write_idx_file(directory / f"{prefix}-labels-idx1-ubyte", labels)


def write_config(path: Path, sections: dict) -> str:
    path.write_text(ini(sections), encoding="utf-8")
    return str(path)


def make_plan(workload: str, seed: int, seconds: int, run_dir: Path) -> dict:
    """Write a run's inputs under run_dir and return its plan.

    A plan lists jobs in the order the measured process runs them. A
    `train` job is one config through load_config + run_experiment, whose
    first `replay_rounds` rounds the checks replay; a `sweep` job is one
    experiments.sweep call over the README's grid; a `diverge` job is a
    train job that must end in DivergenceError.
    """
    run_dir.mkdir(parents=True, exist_ok=True)
    words = [int(w) for w in np.random.SeedSequence([seed, 20230925]).generate_state(8)]
    jobs = []
    if workload == "fig2c-train":
        rounds = max(FIG2C_MIN_ROUNDS, round(FIG2C_ROUNDS_PER_SECOND * seconds))
        sections = fig2c(words[:5], rounds, run_dir / "fig2c")
        jobs.append({"kind": "train", "config": write_config(run_dir / "fig2c.ini", sections),
                     "sections": sections, "replay_rounds": min(5, rounds)})
    elif workload == "mnist-mlp-train":
        rounds = max(MNIST_MIN_ROUNDS, round(MNIST_ROUNDS_PER_SECOND * seconds))
        data_dir = run_dir / "idx"
        write_mnist_fixture(data_dir, words[5])
        sections = mnist(words[:5], rounds, data_dir, run_dir / "mnist")
        jobs.append({"kind": "train", "config": write_config(run_dir / "mnist.ini", sections),
                     "sections": sections, "replay_rounds": min(2, rounds)})
    elif workload == "smoke-sweep":
        # One unit is a full grid plus the diverging job, so the share of
        # failed operations is the same however many units a run holds.
        for unit in range(max(1, round(seconds / SWEEP_SECONDS))):
            base = smoke(words[unit % len(words)] % 1_000_000, run_dir / f"sweep{unit}")
            jobs.append({"kind": "sweep", "config": write_config(run_dir / f"sweep{unit}.ini", base),
                         "sections": base, "out": str(run_dir / f"sweep{unit}"),
                         "alphas": SWEEP_ALPHAS, "gammas": SWEEP_GAMMAS,
                         "repeats": SWEEP_REPEATS})
            # Fixed inputs, independent of the run seed: an MLP that diverges.
            diverge = smoke(1, run_dir / f"diverge{unit}", model="mlp", lr_theta=1e50)
            jobs.append({"kind": "diverge", "config": write_config(run_dir / f"diverge{unit}.ini", diverge),
                         "sections": diverge})
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return {"workload": workload, "seed": seed, "jobs": jobs}

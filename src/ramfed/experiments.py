"""Experiment harness: config parsing, runs, sweeps, artifact writing.

Configs are INI files with sections dataset/partition/ram/train/risk/run,
loaded into one typed ``ExperimentConfig``; seed overrides and sweep cells
derive new configs from it with ``dataclasses.replace``. Every run writes a
metrics CSV, a config echo rendered from the typed config it ran (defaults
included; ``load_config`` reads it back to the same config), a final
parameter snapshot, and SVG charts.
Artifact writes go through a temp file plus rename, so an interrupted run
never leaves a partial file at the final path.
"""

from __future__ import annotations

import configparser
import csv
import hashlib
import os
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import charts
from .channel import GEOMETRIC, TAIL_THREE, make_ram, skewed_weights
from .data import (Dataset, PartitionSpec, check_synthetic_2d, gen_synthetic_2d, load_idx_dataset,
                   partition_heterogeneous)
from .models import LOGREG, MLP, ModelArch, atomic_write as atomic_write_text, save_params
from .risk import RiskConfig
from .training import DivergenceError, RunHistory, Seeds, TrainConfig, train

DATA_DIR_ENV = "RAMFED_DATA_DIR"

SYNTHETIC = "synthetic2d"
MNIST = "mnist"
FASHION_MNIST = "fashionmnist"

EXPLICIT = "explicit"

# Offset separating the synthetic test-set stream from the train stream.
_TEST_SEED_OFFSET = 900_001


class ConfigError(ValueError):
    """Unknown key or invariant violation; the message names both."""


@dataclass(frozen=True)
class DatasetConfig:
    kind: str
    num_classes: int = 0
    per_class: int = 0
    spread: float = 0.4
    seed: int = 0
    test_per_class: int = 0
    dir: str = ""
    subset: int = 0
    test_subset: int = 0
    subset_seed: int = 0

    def __post_init__(self):
        if self.seed < 0 or self.subset_seed < 0:
            raise ValueError("[dataset] seed and subset_seed must be nonnegative")
        if self.kind == SYNTHETIC:
            check_synthetic_2d(self.num_classes, self.per_class, self.spread)
            check_synthetic_2d(self.num_classes, self.test_per_class, self.spread, "test_per_class")


@dataclass(frozen=True)
class RamRecipe:
    kind: str
    weights: tuple[float, ...] = ()
    param: float = 0.9


@dataclass
class ExperimentConfig:
    dataset: DatasetConfig
    partition: PartitionSpec
    ram: RamRecipe
    train: TrainConfig
    output_dir: Path
    eval_every: int
    smooth_window: int


@dataclass
class RunArtifacts:
    output_dir: Path
    metrics_path: Path
    echo_path: Path
    snapshot_path: Path | None
    chart_paths: list[Path]
    history: RunHistory


_SECTION_KEYS = {
    "dataset": {"kind", "num_classes", "per_class", "spread", "seed", "test_per_class",
                "dir", "subset", "test_subset", "subset_seed"},
    "partition": {"num_users", "frequent_fraction", "frequent_pattern_fraction", "seed"},
    "ram": {"kind", "weights", "param"},
    "train": {"global_rounds", "local_epochs", "batch_size", "lr_theta", "lr_t",
              "model", "hidden_dims", "init_seed", "ram_seed", "shuffle_seed"},
    "risk": {"alpha", "gamma"},
    # `workers` is accepted and ignored: bench/workloads.py writes it into every config.
    "run": {"output_dir", "eval_every", "smooth_window", "workers"},
}


def _require(section: dict[str, str], section_name: str, key: str) -> str:
    if key not in section:
        raise ConfigError(f"[{section_name}] missing required key '{key}'")
    return section[key]


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(part) for part in text.split(",") if part.strip())


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(",") if part.strip())


def load_config(path, seed_override: int | None = None) -> ExperimentConfig:
    """Parse and eagerly validate an experiment config.

    Unknown keys or sections are rejected by name; a malformed or non-UTF-8
    file, or a value its dataclass rejects, raises ``ConfigError``. With
    ``seed_override`` the config is ``reseed``-ed from that integer. A run's
    ``config_echo.ini`` loads back to the config the run used.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(path)
    parser = configparser.ConfigParser(interpolation=None)
    sections: dict[str, dict[str, str]] = {name: {} for name in _SECTION_KEYS}
    try:
        parser.read(path, encoding="utf-8")
        for name in parser.sections():
            if name not in _SECTION_KEYS:
                raise ConfigError(f"unknown section [{name}]")
            for key in parser[name]:
                if key not in _SECTION_KEYS[name]:
                    raise ConfigError(f"[{name}] unknown key '{key}'")
            sections[name] = dict(parser[name])
        cfg = _build_config(sections)
        return cfg if seed_override is None else reseed(cfg, seed_override)
    except (ValueError, KeyError, configparser.Error) as err:
        if isinstance(err, ConfigError):
            raise
        raise ConfigError(str(err)) from err


def reseed(cfg: ExperimentConfig, seed: int) -> ExperimentConfig:
    """The config with its run seeds (init, ram, shuffle, partition, and the
    dataset's: synthetic ``seed``, IDX ``subset_seed``) derived from one integer."""
    words = [int(w) for w in np.random.SeedSequence(seed).generate_state(5)]
    data_key = "seed" if cfg.dataset.kind == SYNTHETIC else "subset_seed"
    return replace(cfg, dataset=replace(cfg.dataset, **{data_key: words[4]}),
                   partition=replace(cfg.partition, seed=words[3]),
                   train=replace(cfg.train, seeds=Seeds(*words[:3])))


def _build_config(sections) -> ExperimentConfig:
    ds_sec = sections["dataset"]
    kind = _require(ds_sec, "dataset", "kind").lower()
    if kind not in (SYNTHETIC, MNIST, FASHION_MNIST):
        raise ConfigError(f"[dataset] unknown kind '{kind}'")
    if kind == SYNTHETIC:
        num_classes = int(_require(ds_sec, "dataset", "num_classes"))
        per_class = int(_require(ds_sec, "dataset", "per_class"))
        dataset = DatasetConfig(
            kind=kind,
            num_classes=num_classes,
            per_class=per_class,
            spread=float(ds_sec.get("spread", 0.4)),
            seed=int(ds_sec.get("seed", 0)),
            test_per_class=int(ds_sec.get("test_per_class", per_class)),
        )
        input_dim = 2
    else:
        dataset = DatasetConfig(
            kind=kind,
            num_classes=10,
            dir=ds_sec.get("dir", ""),
            subset=int(ds_sec.get("subset", 0)),
            test_subset=int(ds_sec.get("test_subset", 0)),
            subset_seed=int(ds_sec.get("subset_seed", 0)),
        )
        num_classes = 10
        input_dim = 784

    part_sec = sections["partition"]
    partition = PartitionSpec(
        num_users=int(_require(part_sec, "partition", "num_users")),
        frequent_fraction=float(_require(part_sec, "partition", "frequent_fraction")),
        frequent_pattern_fraction=float(
            _require(part_sec, "partition", "frequent_pattern_fraction")
        ),
        seed=int(part_sec.get("seed", 0)),
    )
    partition.num_frequent_classes(num_classes)

    ram_sec = sections["ram"]
    ram_kind = ram_sec.get("kind", EXPLICIT).lower()
    if ram_kind == EXPLICIT:
        weights = _floats(_require(ram_sec, "ram", "weights"))
        if len(weights) != partition.num_users:
            raise ConfigError(
                f"[ram] weights has {len(weights)} entries for "
                f"{partition.num_users} users"
            )
        make_ram(np.asarray(weights))
        ram = RamRecipe(EXPLICIT, weights=weights)
    elif ram_kind in (GEOMETRIC, TAIL_THREE):
        param = float(ram_sec.get("param", 0.9))
        skewed_weights(partition.num_users, ram_kind, param)
        ram = RamRecipe(ram_kind, param=param)
    else:
        raise ConfigError(f"[ram] unknown kind '{ram_kind}'")

    train_sec = sections["train"]
    model_kind = _require(train_sec, "train", "model").lower()
    if model_kind == LOGREG:
        arch = ModelArch(LOGREG, input_dim, num_classes)
    elif model_kind == MLP:
        hidden = _ints(_require(train_sec, "train", "hidden_dims"))
        arch = ModelArch(MLP, input_dim, num_classes, hidden)
    else:
        raise ConfigError(f"[train] unknown model '{model_kind}'")

    risk_sec = sections["risk"]
    risk = RiskConfig(
        alpha=float(_require(risk_sec, "risk", "alpha")),
        gamma=float(_require(risk_sec, "risk", "gamma")),
    )

    seeds = Seeds(
        init=int(train_sec.get("init_seed", 0)),
        ram=int(train_sec.get("ram_seed", 1)),
        shuffle=int(train_sec.get("shuffle_seed", 2)),
    )
    train_cfg = TrainConfig(
        arch=arch,
        global_rounds=int(_require(train_sec, "train", "global_rounds")),
        local_epochs=int(_require(train_sec, "train", "local_epochs")),
        batch_size=int(train_sec.get("batch_size", 64)),
        lr_theta=float(_require(train_sec, "train", "lr_theta")),
        lr_t=float(_require(train_sec, "train", "lr_t")),
        risk=risk,
        seeds=seeds,
    )

    run_sec = sections["run"]
    config = ExperimentConfig(
        dataset=dataset,
        partition=partition,
        ram=ram,
        train=train_cfg,
        output_dir=Path(_require(run_sec, "run", "output_dir")),
        eval_every=int(run_sec.get("eval_every", 25)),
        smooth_window=int(run_sec.get("smooth_window", 50)),
    )
    if config.eval_every < 0 or config.smooth_window < 1:
        raise ConfigError("[run] eval_every >= 0 and smooth_window >= 1 required")
    return config


def resolve_ram_weights(cfg: ExperimentConfig) -> np.ndarray:
    """The normalized selection weights the channel will use."""
    if cfg.ram.kind == EXPLICIT:
        return make_ram(np.asarray(cfg.ram.weights)).weights
    return make_ram(skewed_weights(cfg.partition.num_users, cfg.ram.kind, cfg.ram.param)).weights


def data_directory(cfg: ExperimentConfig) -> Path:
    if cfg.dataset.dir:
        root = Path(cfg.dataset.dir)
    else:
        env = os.environ.get(DATA_DIR_ENV, "")
        if not env:
            raise FileNotFoundError(
                f"no dataset directory: set [dataset] dir or the {DATA_DIR_ENV} "
                "environment variable"
            )
        root = Path(env)
    nested = root / cfg.dataset.kind
    return nested if nested.is_dir() else root


def _subsample(data: Dataset, size: int, seed: int) -> Dataset:
    if size <= 0 or size >= len(data):
        return data
    order = np.random.default_rng(seed).permutation(len(data))
    return data.take(np.sort(order[:size]))


def build_datasets(cfg: ExperimentConfig) -> tuple[list[Dataset], Dataset, Dataset]:
    """(user shards, test set, pooled train set) for a config."""
    ds = cfg.dataset
    if ds.kind == SYNTHETIC:
        pooled = gen_synthetic_2d(ds.num_classes, ds.per_class, ds.spread, ds.seed)
        test = gen_synthetic_2d(
            ds.num_classes, ds.test_per_class, ds.spread, ds.seed + _TEST_SEED_OFFSET
        )
    else:
        directory = data_directory(cfg)
        pooled = _subsample(load_idx_dataset(directory, "train"), ds.subset, ds.subset_seed)
        test = _subsample(
            load_idx_dataset(directory, "test"), ds.test_subset, ds.subset_seed + 1
        )
    shards = partition_heterogeneous(pooled, cfg.partition)
    return shards, test, pooled


# ---------------------------------------------------------------------------
# Artifacts
# ---------------------------------------------------------------------------

def metrics_header(num_classes: int) -> list[str]:
    return (
        ["round", "overall_acc"]
        + [f"per_class_acc_{c}" for c in range(num_classes)]
        + ["global_t", "selected_user_freq_snapshot"]
    )


def format_metrics(history: RunHistory, num_classes: int) -> str:
    rows = [",".join(metrics_header(num_classes))]
    for rec in history.evals:
        freq = "|".join(repr(float(f)) for f in rec.selection_freq)
        cells = (
            [str(rec.round), repr(float(rec.overall_acc))]
            + [repr(float(a)) for a in rec.per_class_acc]
            + [repr(float(rec.global_t)), freq]
        )
        rows.append(",".join(cells))
    return "\n".join(rows) + "\n"


def parse_metrics(path) -> dict[str, np.ndarray]:
    """Read a metrics CSV back into arrays; inverse of format_metrics."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    class_cols = [name for name in header if name.startswith("per_class_acc_")]
    expected = metrics_header(len(class_cols))
    if header != expected:
        raise ValueError(f"unexpected metrics header {header}")
    rounds, overall, per_class, global_t, freqs = [], [], [], [], []
    for row in rows:
        rounds.append(int(row[0]))
        overall.append(float(row[1]))
        per_class.append([float(v) for v in row[2 : 2 + len(class_cols)]])
        global_t.append(float(row[2 + len(class_cols)]))
        freqs.append([float(v) for v in row[3 + len(class_cols)].split("|")])
    return {
        "round": np.asarray(rounds),
        "overall_acc": np.asarray(overall),
        "per_class_acc": np.asarray(per_class),
        "global_t": np.asarray(global_t),
        "selection_freq": np.asarray(freqs),
    }


def write_config_echo(cfg: ExperimentConfig, path: Path) -> None:
    """Render the config as INI with the keys its dataset kind reads; floats as
    ``str`` of the value, so ``load_config`` of the echo returns ``cfg``."""
    ds, train, seeds = cfg.dataset, cfg.train, cfg.train.seeds
    data_keys = (("num_classes", "per_class", "spread", "seed", "test_per_class")
                 if ds.kind == SYNTHETIC else ("dir", "subset", "test_subset", "subset_seed"))
    sections = {
        "dataset": {"kind": ds.kind, **{key: getattr(ds, key) for key in data_keys}},
        "partition": asdict(cfg.partition),
        "ram": asdict(cfg.ram),
        "train": {"global_rounds": train.global_rounds, "local_epochs": train.local_epochs,
                  "batch_size": train.batch_size, "lr_theta": train.lr_theta,
                  "lr_t": train.lr_t, "model": train.arch.kind,
                  "hidden_dims": train.arch.hidden_dims, "init_seed": seeds.init,
                  "ram_seed": seeds.ram, "shuffle_seed": seeds.shuffle},
        "risk": asdict(train.risk),
        "run": {key: getattr(cfg, key) for key in ("output_dir", "eval_every", "smooth_window")},
    }
    lines: list[str] = []
    for name, values in sections.items():
        lines.append(f"[{name}]")
        for key, value in sorted(values.items()):
            text = ", ".join(map(str, value)) if isinstance(value, tuple) else str(value)
            lines.append(f"{key} = {text}")
        lines.append("")
    atomic_write_text(path, "\n".join(lines))


def emit_charts(cfg: ExperimentConfig, history: RunHistory, ram_weights: np.ndarray,
                pooled: Dataset | None, final_params) -> list[Path]:
    out = cfg.output_dir
    paths = []
    window = cfg.smooth_window
    if history.evals:
        rounds = [rec.round for rec in history.evals]
        overall = [rec.overall_acc for rec in history.evals]
        path = out / "overall_accuracy.svg"
        charts.line_chart(path, rounds, {"overall": overall},
                          "overall test accuracy", "round", "accuracy",
                          smooth_window=window)
        paths.append(path)

        num_classes = history.evals[0].per_class_acc.size
        n_freq = cfg.partition.num_frequent_classes(num_classes)
        rare = {
            f"class {c}": [rec.per_class_acc[c] for rec in history.evals]
            for c in range(n_freq, num_classes)
        }
        path = out / "rare_class_accuracy.svg"
        charts.line_chart(path, rounds, rare,
                          "test accuracy, classes of infrequent users", "round",
                          "accuracy", smooth_window=window)
        paths.append(path)

    if history.rounds:
        path = out / "global_threshold.svg"
        charts.line_chart(
            path,
            [rec.round for rec in history.rounds],
            {"global t": [rec.t_global for rec in history.rounds]},
            "global risk threshold", "round", "t", smooth_window=window,
        )
        paths.append(path)

    path = out / "selection_weights.svg"
    charts.bar_chart(path, ram_weights, "channel selection weights", "user", "probability")
    paths.append(path)

    if pooled is not None and pooled.features.shape[1] == 2 and final_params is not None:
        path = out / "decision_boundary.svg"
        charts.decision_boundary_chart(path, final_params, pooled)
        paths.append(path)
    return paths


def run_experiment(cfg: ExperimentConfig) -> RunArtifacts:
    """Train under a config and materialize all artifacts.

    On divergence, artifacts for the completed rounds are still written and
    the error is re-raised for the caller to turn into an exit status.
    """
    shards, test, pooled = build_datasets(cfg)
    weights = resolve_ram_weights(cfg)
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    echo_path = cfg.output_dir / "config_echo.ini"
    write_config_echo(cfg, echo_path)
    metrics_path = cfg.output_dir / "metrics.csv"

    try:
        state, history = train(shards, weights, cfg.train, eval_data=test, eval_every=cfg.eval_every)
    except DivergenceError as err:
        if err.history is not None:
            atomic_write_text(
                metrics_path, format_metrics(err.history, cfg.dataset.num_classes)
            )
        raise

    atomic_write_text(metrics_path, format_metrics(history, cfg.dataset.num_classes))
    snapshot_path = cfg.output_dir / "model.bin"
    save_params(state.theta_global, snapshot_path)
    chart_paths = emit_charts(cfg, history, weights, pooled, state.theta_global)
    return RunArtifacts(
        output_dir=cfg.output_dir,
        metrics_path=metrics_path,
        echo_path=echo_path,
        snapshot_path=snapshot_path,
        chart_paths=chart_paths,
        history=history,
    )


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

def derive_seed(base_seed: int, alpha: float, gamma: float, repeat: int) -> int:
    """Stable per-cell seed; collision-free across the grid by construction."""
    key = f"{base_seed}:{alpha!r}:{gamma!r}:{repeat}".encode()
    return int.from_bytes(hashlib.blake2b(key, digest_size=8).digest(), "big") >> 1


def sweep(config_path, alphas, gammas, repeats: int,
          output_dir: Path | None = None) -> tuple[list[dict], Path]:
    """Grid of (alpha, gamma) cells, ``repeats`` independent runs each.

    The config is loaded once; each run is that config ``reseed``-ed from
    (base init seed, alpha, gamma, repeat), with the cell's risk levels and
    its own output directory. Failures do not stop the sweep; they are
    recorded in the summary row. Returns the summary rows and the path of
    the written summary CSV.
    """
    if not alphas or not gammas:
        raise ValueError("alpha and gamma grids must be nonempty")
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    base_cfg = load_config(config_path)
    base_seed = base_cfg.train.seeds.init
    out_root = Path(output_dir) if output_dir else base_cfg.output_dir / "sweep"

    num_classes = base_cfg.dataset.num_classes
    n_freq = base_cfg.partition.num_frequent_classes(num_classes)
    rare_classes = list(range(n_freq, num_classes))

    rows = []
    for alpha in alphas:
        for gamma in gammas:
            overall, rare_acc = [], {c: [] for c in rare_classes}
            failures = 0
            for rep in range(repeats):
                cell = reseed(base_cfg, derive_seed(base_seed, alpha, gamma, rep))
                cfg = replace(
                    cell,
                    train=replace(cell.train, risk=RiskConfig(float(alpha), float(gamma))),
                    output_dir=out_root / f"alpha_{alpha}_gamma_{gamma}" / f"rep_{rep}",
                )
                try:
                    artifacts = run_experiment(cfg)
                except (DivergenceError, FileNotFoundError):
                    failures += 1
                    continue
                if not artifacts.history.evals:  # zero rounds: nothing was evaluated
                    continue
                final = artifacts.history.evals[-1]
                overall.append(final.overall_acc)
                for c in rare_classes:
                    rare_acc[c].append(final.per_class_acc[c])
            row = {
                "alpha": alpha,
                "gamma": gamma,
                "repeats": repeats,
                "failures": failures,
                "overall_mean": float(np.mean(overall)) if overall else float("nan"),
                "overall_std": float(np.std(overall)) if overall else float("nan"),
            }
            for c in rare_classes:
                vals = rare_acc[c]
                row[f"rare_class_{c}_mean"] = float(np.mean(vals)) if vals else float("nan")
                row[f"rare_class_{c}_std"] = float(np.std(vals)) if vals else float("nan")
            rows.append(row)

    summary_path = out_root / "sweep_summary.csv"
    header = list(rows[0].keys())
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(
            str(row[k]) if isinstance(row[k], int) else repr(float(row[k]))
            for k in header
        ))
    atomic_write_text(summary_path, "\n".join(lines) + "\n")
    return rows, summary_path

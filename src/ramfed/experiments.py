"""Experiment harness: config parsing, runs, sweeps, artifact writing.

Configs are INI files with sections dataset/partition/ram/train/risk/run,
loaded into one typed ``ExperimentConfig``; seed overrides and sweep cells
derive new configs from it with ``dataclasses.replace``. ``SCHEMA`` states
the keys each section's kind reads; each key's type and default are those
of the dataclass field it fills. Every run writes a metrics CSV, a config
echo rendered from the typed config it ran (defaults included;
``load_config`` reads it back to the same config), a final parameter
snapshot, and SVG charts.
Artifact writes go through a temp file plus rename, so an interrupted run
never leaves a partial file at the final path.
"""

from __future__ import annotations

import configparser
import csv
import hashlib
import os
import sys
from dataclasses import MISSING, dataclass, fields, replace
from operator import attrgetter
from pathlib import Path

import numpy as np

from . import charts
from .channel import (GEOMETRIC, TAIL_THREE, RamDistribution, RandomAccessChannel, make_ram,
                      skewed_weights)
from .data import (Dataset, InputError, PartitionSpec, check_synthetic_2d, gen_synthetic_2d,
                   load_idx_dataset, partition_heterogeneous)
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


@dataclass(frozen=True)
class DatasetConfig:
    kind: str
    num_classes: int = 0
    per_class: int = 0
    spread: float = 0.4
    seed: int = 0
    test_per_class: int | None = None  # None: the same as per_class
    dir: str = ""
    subset: int = 0
    test_subset: int = 0
    subset_seed: int = 0

    def __post_init__(self):
        if self.test_per_class is None:
            object.__setattr__(self, "test_per_class", self.per_class)
        for name in ("seed", "subset_seed", "subset", "test_subset"):
            if getattr(self, name) < 0:
                raise ValueError(f"[dataset] {name} must be nonnegative")
        if self.kind == SYNTHETIC:
            check_synthetic_2d(self.num_classes, self.per_class, self.spread)
            check_synthetic_2d(self.num_classes, self.test_per_class, self.spread, "test_per_class")


@dataclass(frozen=True)
class RamRecipe:
    kind: str = EXPLICIT
    weights: tuple[float, ...] = ()
    param: float = 0.9


@dataclass
class ExperimentConfig:
    dataset: DatasetConfig
    partition: PartitionSpec
    ram: RamRecipe
    train: TrainConfig
    output_dir: Path
    eval_every: int = 25
    smooth_window: int = 50

    def __post_init__(self):
        if self.eval_every < 0 or self.smooth_window < 1:
            raise ValueError("[run] eval_every >= 0 and smooth_window >= 1 required")
        self.partition.num_frequent_classes(self.dataset.num_classes)
        resolve_ram_weights(self)


@dataclass
class RunArtifacts:
    output_dir: Path
    metrics_path: Path
    echo_path: Path
    snapshot_path: Path | None
    chart_paths: list[Path]
    history: RunHistory


_TRAIN_KEYS = ("global_rounds", "local_epochs", "batch_size", "lr_theta", "lr_t",
               "init_seed", "ram_seed", "shuffle_seed")
_IDX_KEYS = ("dir", "subset", "test_subset", "subset_seed")

# The INI schema: per section, the key that names its kind (None: no kinds)
# and the keys each kind reads. load_config accepts and write_config_echo
# writes exactly these keys; `_FIELDS` gives each its type and default.
SCHEMA: dict[str, tuple[str | None, dict]] = {
    "dataset": ("kind", {SYNTHETIC: ("num_classes", "per_class", "spread", "seed", "test_per_class"),
                         MNIST: _IDX_KEYS, FASHION_MNIST: _IDX_KEYS}),
    "partition": (None, {None: ("num_users", "frequent_fraction", "frequent_pattern_fraction",
                                "seed")}),
    "ram": ("kind", {EXPLICIT: ("weights",), GEOMETRIC: ("param",), TAIL_THREE: ("param",)}),
    "train": ("model", {LOGREG: _TRAIN_KEYS, MLP: _TRAIN_KEYS + ("hidden_dims",)}),
    "risk": (None, {None: ("alpha", "gamma")}),
    "run": (None, {None: ("output_dir", "eval_every", "smooth_window")}),
}
# Accepted and ignored: bench/workloads.py writes `workers` into every config.
IGNORED_KEYS = {"run": ("workers",)}


def _fields_at(path: str, cls, rename=None) -> dict:
    """INI key -> (attribute path from ExperimentConfig, field) per field of a dataclass."""
    return {(rename or {}).get(f.name, f.name): (f"{path}.{f.name}".lstrip("."), f)
            for f in fields(cls)}


_FIELDS = {
    "dataset": _fields_at("dataset", DatasetConfig),
    "partition": _fields_at("partition", PartitionSpec),
    "ram": _fields_at("ram", RamRecipe),
    "train": {**_fields_at("train", TrainConfig),
              **_fields_at("train.arch", ModelArch, {"kind": "model"}),
              **_fields_at("train.seeds", Seeds,
                           {"init": "init_seed", "ram": "ram_seed", "shuffle": "shuffle_seed"})},
    "risk": _fields_at("train.risk", RiskConfig),
    "run": _fields_at("", ExperimentConfig),
}


def _vector(cast):
    return lambda text: tuple(cast(part) for part in text.split(",") if part.strip())


# How a value is read, by the annotation of its field.
_PARSERS = {"str": str, "Path": Path, "int": int, "int | None": int, "float": float,
            "tuple[int, ...]": _vector(int), "tuple[float, ...]": _vector(float)}


def section_keys(name: str, kind: str | None) -> tuple[str, ...]:
    """The keys a section of this kind reads, its kind key first."""
    kind_key, kinds = SCHEMA[name]
    return ((kind_key,) if kind_key else ()) + kinds[kind]


def _value(name: str, key: str, raw: dict[str, str]):
    field = _FIELDS[name][key][1]
    if key not in raw:
        if field.default is MISSING:
            raise InputError(f"[{name}] missing required key '{key}'")
        return field.default
    try:
        return _PARSERS[field.type](raw[key])
    except ValueError as err:
        raise InputError(f"[{name}] {key}: {err}") from err


def _read_section(name: str, raw: dict[str, str]) -> dict[str, object]:
    """The typed value of every key the section's kind reads, defaults filled."""
    kind_key, kinds = SCHEMA[name]
    ignored = IGNORED_KEYS.get(name, ())
    # Checked before any key is required, so a misspelt required key is named as the typo.
    read_by_some_kind = {key for kind in kinds for key in section_keys(name, kind)}
    for key in raw:
        if key not in read_by_some_kind and key not in ignored:
            raise InputError(f"[{name}] unknown key '{key}'")
    kind = _value(name, kind_key, raw).lower() if kind_key else None
    if kind not in kinds:
        raise InputError(f"[{name}] unknown {kind_key} '{kind}'")
    keys = section_keys(name, kind)
    for key in raw:
        if key not in keys and key not in ignored:
            raise InputError(f"[{name}] key '{key}' is not read by {kind_key} {kind}")
    return {key: kind if key == kind_key else _value(name, key, raw) for key in keys}


def load_config(path, seed_override: int | None = None) -> ExperimentConfig:
    """Parse and eagerly validate an experiment config.

    An unknown section, a key its section's kind does not read, a malformed
    or non-UTF-8 file and a value its dataclass rejects raise ``InputError``,
    named; a file that cannot be opened raises its ``OSError``. With
    ``seed_override`` the config is ``reseed``-ed from that integer. A run's
    ``config_echo.ini`` loads back to the config it ran.
    """
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
        for name in parser.sections():
            if name not in SCHEMA:
                raise InputError(f"unknown section [{name}]")
        found: dict[str, dict] = {}  # attribute path -> {field name: value}
        for name in SCHEMA:
            raw = dict(parser[name]) if parser.has_section(name) else {}
            for key, value in _read_section(name, raw).items():
                owner, _, attr = _FIELDS[name][key][0].rpartition(".")
                found.setdefault(owner, {})[attr] = value
        cfg = _build_config(found)
        return cfg if seed_override is None else reseed(cfg, seed_override)
    except UnicodeDecodeError as err:  # its message names neither the file nor a key
        raise InputError(f"{path}: {err}") from err
    except (ValueError, configparser.Error) as err:
        if isinstance(err, InputError):
            raise
        raise InputError(str(err)) from err


def _build_config(found: dict[str, dict]) -> ExperimentConfig:
    synthetic = found["dataset"]["kind"] == SYNTHETIC
    # The IDX sets (MNIST, Fashion-MNIST) are 28x28 images in 10 classes.
    dataset = DatasetConfig(**found["dataset"], **({} if synthetic else {"num_classes": 10}))
    arch = ModelArch(input_dim=2 if synthetic else 784, num_classes=dataset.num_classes,
                     **found["train.arch"])
    train_cfg = TrainConfig(arch=arch, risk=RiskConfig(**found["train.risk"]),
                            seeds=Seeds(**found["train.seeds"]), **found["train"])
    return ExperimentConfig(dataset, PartitionSpec(**found["partition"]),
                            RamRecipe(**found["ram"]), train_cfg, **found[""])


def reseed(cfg: ExperimentConfig, seed: int) -> ExperimentConfig:
    """The config with its run seeds (init, ram, shuffle, partition, and the
    dataset's: synthetic ``seed``, IDX ``subset_seed``) derived from one integer."""
    words = [int(w) for w in np.random.SeedSequence(seed).generate_state(5)]
    data_key = "seed" if cfg.dataset.kind == SYNTHETIC else "subset_seed"
    return replace(cfg, dataset=replace(cfg.dataset, **{data_key: words[4]}),
                   partition=replace(cfg.partition, seed=words[3]),
                   train=replace(cfg.train, seeds=Seeds(*words[:3])))


def resolve_ram_weights(cfg: ExperimentConfig) -> np.ndarray:
    """The normalized selection weights the channel will use."""
    users = cfg.partition.num_users
    if cfg.ram.kind != EXPLICIT:
        return make_ram(skewed_weights(users, cfg.ram.kind, cfg.ram.param)).weights
    if len(cfg.ram.weights) != users:
        raise ValueError(f"[ram] weights has {len(cfg.ram.weights)} entries for {users} users")
    return make_ram(np.asarray(cfg.ram.weights)).weights


def data_directory(cfg: ExperimentConfig) -> Path:
    root = cfg.dataset.dir or os.environ.get(DATA_DIR_ENV, "")
    if not root:
        raise InputError(f"no dataset directory: set [dataset] dir or the {DATA_DIR_ENV} "
                         "environment variable")
    nested = Path(root) / cfg.dataset.kind
    return nested if nested.is_dir() else Path(root)


def _subsample(data: Dataset, size: int, seed: int) -> Dataset:
    if size <= 0 or size >= len(data):
        return data
    order = np.random.default_rng(seed).permutation(len(data))
    return data.take(np.sort(order[:size]))


def build_test_set(cfg: ExperimentConfig) -> Dataset:
    """The test set of a config; no train data is read or generated."""
    ds = cfg.dataset
    if ds.kind == SYNTHETIC:
        return gen_synthetic_2d(ds.num_classes, ds.test_per_class, ds.spread,
                                ds.seed + _TEST_SEED_OFFSET)
    test = load_idx_dataset(data_directory(cfg), "test")
    return _subsample(test, ds.test_subset, ds.subset_seed + 1)


def build_datasets(cfg: ExperimentConfig) -> tuple[list[Dataset], Dataset, Dataset]:
    """(user shards, test set, pooled train set) for a config."""
    ds = cfg.dataset
    if ds.kind == SYNTHETIC:
        pooled = gen_synthetic_2d(ds.num_classes, ds.per_class, ds.spread, ds.seed)
    else:
        pooled = _subsample(load_idx_dataset(data_directory(cfg), "train"), ds.subset,
                            ds.subset_seed)
    test = build_test_set(cfg)
    return partition_heterogeneous(pooled, cfg.partition), test, pooled


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
    """Render the config as INI, per section exactly the keys its kind reads;
    floats as ``str`` of the value, so ``load_config`` of the echo returns ``cfg``."""
    lines: list[str] = []
    for name, (kind_key, _) in SCHEMA.items():
        lines.append(f"[{name}]")
        kind = attrgetter(_FIELDS[name][kind_key][0])(cfg) if kind_key else None
        for key in sorted(section_keys(name, kind)):
            value = attrgetter(_FIELDS[name][key][0])(cfg)
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
    channel = RandomAccessChannel(RamDistribution(weights), cfg.train.seeds.ram)
    echo_path = cfg.output_dir / "config_echo.ini"
    write_config_echo(cfg, echo_path)
    metrics_path = cfg.output_dir / "metrics.csv"

    try:
        state, history = train(shards, channel, cfg.train, eval_data=test,
                               eval_every=cfg.eval_every)
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


def _mean_std(prefix: str, values: list) -> dict[str, float]:
    nan = float("nan")
    return {f"{prefix}_mean": float(np.mean(values)) if values else nan,
            f"{prefix}_std": float(np.std(values)) if values else nan}


def sweep(config_path, alphas, gammas, repeats: int,
          output_dir: Path | None = None) -> tuple[list[dict], Path]:
    """Grid of (alpha, gamma) cells, ``repeats`` independent runs each; a
    level is a number or a string that ``float`` reads.

    The config is loaded once; each run is that config ``reseed``-ed from
    (base init seed, alpha, gamma, repeat), with the cell's risk levels and
    its own output directory. A bad level, and an output root that cannot be
    made, raise before any run; a failing run is counted in its row's
    ``failures`` and the sweep goes on. Returns the rows and the summary CSV's path.
    """
    if not alphas or not gammas:
        raise InputError("alpha and gamma grids must be nonempty")
    if repeats < 1:
        raise InputError("repeats must be >= 1")
    try:  # every level is read and checked before the first cell runs
        risks = [RiskConfig(float(alpha), float(gamma)) for alpha in alphas for gamma in gammas]
    except ValueError as err:
        raise InputError(str(err)) from err
    base_cfg = load_config(config_path)
    base_seed = base_cfg.train.seeds.init
    out_root = Path(output_dir) if output_dir else base_cfg.output_dir / "sweep"
    out_root.mkdir(parents=True, exist_ok=True)

    n_freq = base_cfg.partition.num_frequent_classes(base_cfg.dataset.num_classes)
    rare_classes = list(range(n_freq, base_cfg.dataset.num_classes))

    rows = []
    for risk in risks:
        overall, rare_acc = [], {c: [] for c in rare_classes}
        failures = 0
        for rep in range(repeats):
            cell = reseed(base_cfg, derive_seed(base_seed, risk.alpha, risk.gamma, rep))
            cfg = replace(cell, train=replace(cell.train, risk=risk), output_dir=out_root
                          / f"alpha_{risk.alpha}_gamma_{risk.gamma}" / f"rep_{rep}")
            try:
                artifacts = run_experiment(cfg)
            except Exception as err:  # diverged, data missing, or any other failure
                print(f"{cfg.output_dir}: {type(err).__name__}: {err}", file=sys.stderr)
                failures += 1
                continue
            if not artifacts.history.evals:  # zero rounds: nothing was evaluated
                continue
            final = artifacts.history.evals[-1]
            overall.append(final.overall_acc)
            for c in rare_classes:
                rare_acc[c].append(final.per_class_acc[c])
        row = {"alpha": risk.alpha, "gamma": risk.gamma, "repeats": repeats, "failures": failures,
               **_mean_std("overall", overall)}
        for c in rare_classes:
            row.update(_mean_std(f"rare_class_{c}", rare_acc[c]))
        rows.append(row)

    summary_path = out_root / "sweep_summary.csv"
    lines = [",".join(rows[0])]  # every row has the same keys in the same order
    lines += [",".join(str(v) if isinstance(v, int) else repr(float(v)) for v in row.values())
              for row in rows]
    atomic_write_text(summary_path, "\n".join(lines) + "\n")
    return rows, summary_path

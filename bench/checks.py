"""Output checks: every job's artifacts against computations made apart from ramfed.

`verify_plan` raises CheckFailed on the first wrong output;
`count_operations` counts attempted and failed operations. An operation is
one config run: a train job or one sweep cell. The diverging job counts as
failed while it leaves through anything but DivergenceError with
metrics.csv written; completing is a wrong output.
"""

from __future__ import annotations

import configparser
import hashlib
import math
import struct
from xml.parsers import expat
from pathlib import Path

import numpy as np

import reference

# Replayed scalars (t_global, training loss) and thetas must match to this
# relative tolerance; the replay sums in another order, so bits may differ.
RTOL = 1e-9
# A frequency snapshot is counts / rounds, so it must match almost exactly.
FREQ_TOL = 1e-12
CHARTS = ("overall_accuracy", "rare_class_accuracy", "global_threshold", "selection_weights")


class CheckFailed(AssertionError):
    pass


def check(condition, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def close(a, b) -> bool:
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= RTOL * (1.0 + np.abs(b))))


def same(a, b) -> bool:
    return np.array_equal(np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64),
                          equal_nan=True)


# ---------------------------------------------------------------------------
# Inputs rebuilt apart from the program
# ---------------------------------------------------------------------------

def run_spec(sections: dict) -> dict:
    ds, part, ram, train, risk = (sections[k] for k in ("dataset", "partition", "ram", "train", "risk"))
    input_dim = 2 if ds["kind"] == "synthetic2d" else 784
    num_classes = int(ds["num_classes"]) if ds["kind"] == "synthetic2d" else 10
    hidden = tuple(int(h) for h in str(train.get("hidden_dims", "")).split(",") if h.strip())
    weights = [float(w) for w in str(ram.get("weights", "")).split(",") if w.strip()]
    return {
        "num_classes": num_classes, "num_users": int(part["num_users"]),
        "shapes": reference.layer_shapes(input_dim, hidden, num_classes),
        "input_dim": input_dim, "hidden": hidden,
        "weights": reference.selection_weights(ram["kind"], int(part["num_users"]),
                                               float(ram.get("param", 0.9)), weights),
        "rounds": int(train["global_rounds"]), "epochs": int(train["local_epochs"]),
        "batch": int(train["batch_size"]), "lr_theta": float(train["lr_theta"]),
        "lr_t": float(train["lr_t"]), "alpha": float(risk["alpha"]), "gamma": float(risk["gamma"]),
        "init_seed": int(train["init_seed"]), "ram_seed": int(train["ram_seed"]),
        "shuffle_seed": int(train["shuffle_seed"]),
        "eval_every": int(sections["run"]["eval_every"]),
    }


def datasets(sections: dict):
    """(user shards as (x, y) pairs, test x, test y) rebuilt from the README recipes."""
    ds, part = sections["dataset"], sections["partition"]
    if ds["kind"] == "synthetic2d":
        c, n, spread, seed = int(ds["num_classes"]), int(ds["per_class"]), float(ds["spread"]), int(ds["seed"])
        x, y = reference.blobs(c, n, spread, seed)
        tx, ty = reference.blobs(c, int(ds.get("test_per_class", n)), spread,
                                 seed + reference.TEST_SEED_OFFSET)
    else:
        c, seed = 10, int(ds["subset_seed"])
        x, y = reference.idx_split(ds["dir"], "train", int(ds["subset"]), seed)
        tx, ty = reference.idx_split(ds["dir"], "test", int(ds["test_subset"]), seed + 1)
    shards = reference.partition(y, c, int(part["num_users"]), float(part["frequent_fraction"]),
                                 float(part["frequent_pattern_fraction"]), int(part["seed"]))
    return [(x[s], y[s]) for s in shards], tx, ty


# ---------------------------------------------------------------------------
# Artifact checks shared by train jobs and sweep cells
# ---------------------------------------------------------------------------

def check_charts(out: Path, two_d: bool) -> None:
    expected = set(CHARTS) | ({"decision_boundary"} if two_d else set())
    found = {p.stem for p in out.glob("*.svg")}
    check(found == expected, f"{out}: charts {sorted(found)} != {sorted(expected)}")
    for name in expected:
        tags = []
        parser = expat.ParserCreate()
        parser.StartElementHandler = lambda tag, attrs: tags.append(tag) if not tags else None
        try:
            parser.Parse((out / f"{name}.svg").read_bytes(), True)
        except expat.ExpatError as err:
            raise CheckFailed(f"{out / name}.svg is not XML: {err}") from err
        check(tags == ["svg"], f"{out / name}.svg root is {tags}")


def check_metrics(out: Path, spec: dict, selections, t_global) -> list[dict]:
    """Header, row rounds, frequency snapshots and (when given) thresholds of metrics.csv."""
    try:
        rows = reference.read_metrics(out / "metrics.csv", spec["num_classes"])
    except (OSError, ValueError) as err:
        raise CheckFailed(f"{out}/metrics.csv: {err}") from err
    rounds, every = spec["rounds"], spec["eval_every"]
    expected = [r for r in range(1, rounds + 1) if (every and r % every == 0) or r == rounds]
    check([row["round"] for row in rows] == expected,
          f"{out}/metrics.csv rounds {[row['round'] for row in rows]} != {expected}")
    for row in rows:
        r = row["round"]
        counts = np.bincount(selections[:r], minlength=spec["num_users"])
        check(abs(sum(row["freq"]) - 1.0) <= 1e-9, f"{out} round {r}: snapshot sums to {sum(row['freq'])}")
        check(len(row["freq"]) == spec["num_users"]
              and np.all(np.abs(np.asarray(row["freq"]) - counts / r) <= FREQ_TOL),
              f"{out} round {r}: snapshot {row['freq']} != replayed counts {counts.tolist()} / {r}")
        check(t_global is None or close(row["global_t"], t_global[r - 1]),
              f"{out} round {r}: global_t {row['global_t']} != {t_global and t_global[r - 1]}")
    return rows


def check_snapshot(out: Path, spec: dict, final: dict, test_x, test_y) -> np.ndarray:
    """model.bin decodes to the config's architecture and scores exactly the final row."""
    try:
        snap = reference.read_snapshot(out / "model.bin")
    except (OSError, ValueError, KeyError, struct.error) as err:
        raise CheckFailed(f"{out}/model.bin: {err}") from err
    check((snap["kind"], snap["input_dim"], snap["num_classes"], snap["hidden"])
          == (1 if spec["hidden"] else 0, spec["input_dim"], spec["num_classes"], spec["hidden"]),
          f"{out}/model.bin architecture {snap} does not match the config")
    overall, per_class = reference.accuracies(spec["shapes"], snap["theta"], test_x, test_y,
                                              spec["num_classes"])
    check(overall == final["overall_acc"] and same(per_class, final["per_class_acc"]),
          f"{out}: model.bin scores {overall} {per_class}, metrics.csv says "
          f"{final['overall_acc']} {final['per_class_acc']}")
    return snap["theta"]


# ---------------------------------------------------------------------------
# Jobs
# ---------------------------------------------------------------------------

def check_train(job: dict, outcome: dict, replay_rounds: int, relayed_theta: np.ndarray) -> None:
    """One completed train job; `relayed_theta` is the program's theta after
    `replay_rounds` rounds of the same config, from a separate short run."""
    sections = job["sections"]
    out = Path(sections["run"]["output_dir"])
    spec = run_spec(sections)
    selections = reference.replay_selections(spec["weights"], spec["ram_seed"], spec["rounds"])
    got = outcome["selected"]
    first = next((r for r, (a, b) in enumerate(zip(got, selections)) if a != b), None)
    check(len(got) == spec["rounds"] and first is None,
          f"{out}: selection differs from the inverse-CDF replay "
          f"({len(got)} rounds recorded, first mismatch at round {first})")
    rows = check_metrics(out, spec, selections, outcome["t_global"])
    shards, test_x, test_y = datasets(sections)
    theta = check_snapshot(out, spec, rows[-1], test_x, test_y)
    chance = 1.0 / spec["num_classes"]
    check(rows[-1]["overall_acc"] > chance,
          f"{out}: final accuracy {rows[-1]['overall_acc']} is not above chance {chance}")
    x, y = shards[selections[-1]]
    loss = reference.mean_ce(reference.logits(spec["shapes"], theta, x), y)
    check(close(loss, outcome["train_loss"][-1]),
          f"{out}: model.bin has loss {loss} on the last relayed user, history says "
          f"{outcome['train_loss'][-1]}")

    trace, theta_v = reference.replay_rounds(shards, spec, selections, replay_rounds)
    t_ref, loss_ref = zip(*trace)
    check(close(outcome["t_global"][:replay_rounds], t_ref),
          f"{out}: t_global {outcome['t_global'][:replay_rounds]} != replay {list(t_ref)}")
    check(close(outcome["train_loss"][:replay_rounds], loss_ref),
          f"{out}: training loss {outcome['train_loss'][:replay_rounds]} != replay {list(loss_ref)}")
    check(close(relayed_theta, theta_v),
          f"{out}: theta relayed in round {replay_rounds} differs from the replay by "
          f"{float(np.abs(relayed_theta - theta_v).max()):.3e}")
    check_charts(out, spec["input_dim"] == 2)


def cell_seed(base_seed: int, alpha: float, gamma: float, repeat: int) -> int:
    key = f"{base_seed}:{alpha!r}:{gamma!r}:{repeat}".encode()
    return int.from_bytes(hashlib.blake2b(key, digest_size=8).digest(), "big") >> 1


def read_summary(path: Path) -> list[dict]:
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def check_sweep_cell(out: Path, base: dict, alpha: float, gamma: float, repeat: int,
                     replay: bool) -> dict:
    """Seeds, selections, snapshot and charts of one cell, and with `replay` the
    whole run replayed against its thresholds and model.bin; returns its final row."""
    words = np.random.SeedSequence(cell_seed(int(base["train"]["init_seed"]), alpha, gamma, repeat)
                                   ).generate_state(5)
    echo = configparser.ConfigParser(interpolation=None)
    check(echo.read(out / "config_echo.ini"), f"{out}: no config_echo.ini")
    seen = [echo["train"]["init_seed"], echo["train"]["ram_seed"], echo["train"]["shuffle_seed"],
            echo["partition"]["seed"], echo["dataset"]["seed"]]
    check(seen == [str(int(w)) for w in words],
          f"{out}: seeds {seen} != blake2b-derived {[int(w) for w in words]}")
    check((echo["risk"]["alpha"], echo["risk"]["gamma"]) == (repr(alpha), repr(gamma)),
          f"{out}: echo risk {dict(echo['risk'])} != ({alpha}, {gamma})")

    sections = {name: dict(values) for name, values in base.items()}
    sections["dataset"] = {**base["dataset"], "seed": int(words[4])}
    sections["partition"] = {**base["partition"], "seed": int(words[3])}
    sections["train"] = {**base["train"], "init_seed": int(words[0]), "ram_seed": int(words[1]),
                         "shuffle_seed": int(words[2])}
    sections["risk"] = {"alpha": alpha, "gamma": gamma}
    spec = run_spec(sections)
    selections = reference.replay_selections(spec["weights"], spec["ram_seed"], spec["rounds"])
    shards, test_x, test_y = datasets(sections)
    trace, theta_ref = (reference.replay_rounds(shards, spec, selections, spec["rounds"])
                        if replay else (None, None))
    rows = check_metrics(out, spec, selections, trace and [t for t, _ in trace])
    theta = check_snapshot(out, spec, rows[-1], test_x, test_y)
    if replay:
        check(close(theta, theta_ref), f"{out}: model.bin differs from the replayed relayed "
              f"theta by {float(np.abs(theta - theta_ref).max()):.3e}")
    check_charts(out, True)
    return rows[-1]


def check_sweep(job: dict) -> None:
    """Every cell, then the summary's grid, failure counts, means and stds."""
    out, base = Path(job["out"]), job["sections"]
    summary = read_summary(out / "sweep_summary.csv")
    grid = [(a, g) for a in job["alphas"] for g in job["gammas"]]
    check([(float(r["alpha"]), float(r["gamma"])) for r in summary] == grid,
          f"{out}: summary grid {[(r['alpha'], r['gamma']) for r in summary]} != {grid}")
    num_classes = int(base["dataset"]["num_classes"])
    n_freq = round(num_classes * float(base["partition"]["frequent_pattern_fraction"]) / 100.0)
    for row, (alpha, gamma) in zip(summary, grid):
        check(int(row["repeats"]) == job["repeats"] and int(row["failures"]) == 0,
              f"{out}: cell ({alpha}, {gamma}) reports {row['failures']} failures of {row['repeats']}")
        # Repeat 0 of every cell is replayed in full; the others share its code path.
        finals = [check_sweep_cell(out / f"alpha_{alpha}_gamma_{gamma}" / f"rep_{rep}",
                                   base, alpha, gamma, rep, replay=rep == 0)
                  for rep in range(job["repeats"])]
        columns = {"overall": [f["overall_acc"] for f in finals]}
        for c in range(n_freq, num_classes):
            columns[f"rare_class_{c}"] = [f["per_class_acc"][c] for f in finals]
        for name, values in columns.items():
            for stat, value in (("mean", np.mean(values)), ("std", np.std(values))):
                got = float(row[f"{name}_{stat}"])
                check(math.isclose(got, float(value), rel_tol=1e-12, abs_tol=1e-15),
                      f"{out}: cell ({alpha}, {gamma}) {name}_{stat} {got} != {float(value)}")


def count_operations(plan: dict, result: dict) -> tuple[int, int]:
    """(attempted, failed) over the plan's config runs."""
    attempted = failed = 0
    for job, outcome in zip(plan["jobs"], result["jobs"], strict=True):
        runs = len(job["alphas"]) * len(job["gammas"]) * job["repeats"] if job["kind"] == "sweep" else 1
        attempted += runs
        if job["kind"] == "diverge":
            out = Path(job["sections"]["run"]["output_dir"])
            failed += int(outcome.get("error") != "DivergenceError" or not (out / "metrics.csv").exists())
        elif not outcome["ok"]:
            failed += runs
    return attempted, failed


def verify_plan(plan: dict, result: dict, relayed: dict) -> None:
    """Check every completed job of a run; `relayed` maps a train job's index
    to the theta the program relays after the job's replayed rounds."""
    for index, (job, outcome) in enumerate(zip(plan["jobs"], result["jobs"], strict=True)):
        if job["kind"] == "diverge":
            check(not outcome["ok"], "the lr_theta = 1e50 run completed instead of diverging")
        elif outcome["ok"] and job["kind"] == "sweep":
            check_sweep(job)
        elif outcome["ok"]:
            check_train(job, outcome, job["replay_rounds"], relayed[index])

"""The round engine against an independent replay at gamma < 1.

`bench/reference.py` never imports ramfed: it rebuilds the data, the
partition, the selection stream, softmax/backprop and the composite
(theta, t) step from the README's recipes. Here it replays the first rounds
of each bundled synthetic preset, and the program must agree with it.
"""

import configparser
import importlib.util
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from ramfed.experiments import build_datasets, load_config, resolve_ram_weights
from ramfed.training import train

from test_experiments import bundled_variant

ROOT = Path(__file__).resolve().parents[1]

_spec = importlib.util.spec_from_file_location("ramfed_reference", ROOT / "bench" / "reference.py")
reference = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reference)

# The replay sums in another order than the program, so bits may differ.
RTOL = 1e-12


def reference_replay(path: Path, rounds: int):
    """(selections, per-round (t_global, selected loss), relayed theta) from the reference."""
    ini = configparser.ConfigParser(interpolation=None)
    ini.read(path)
    ds, part, ram, tr, risk = (ini[k] for k in ("dataset", "partition", "ram", "train", "risk"))
    num_classes, per_class, spread, seed = (int(ds["num_classes"]), int(ds["per_class"]),
                                            float(ds["spread"]), int(ds["seed"]))
    x, y = reference.blobs(num_classes, per_class, spread, seed)
    num_users = int(part["num_users"])
    shards = reference.partition(y, num_classes, num_users, float(part["frequent_fraction"]),
                                 float(part["frequent_pattern_fraction"]), int(part["seed"]))
    weights = reference.selection_weights(
        ram["kind"], num_users, float(ram.get("param", "0.9")),
        [float(w) for w in ram.get("weights", "").split(",") if w.strip()])
    selections = reference.replay_selections(weights, int(tr["ram_seed"]), rounds)
    hidden = [int(h) for h in tr.get("hidden_dims", "").split(",") if h.strip()]
    run = {
        "shapes": reference.layer_shapes(2, hidden, num_classes),
        "epochs": int(tr["local_epochs"]), "batch": int(tr["batch_size"]),
        "lr_theta": float(tr["lr_theta"]), "lr_t": float(tr["lr_t"]),
        "alpha": float(risk["alpha"]), "gamma": float(risk["gamma"]),
        "init_seed": int(tr["init_seed"]), "shuffle_seed": int(tr["shuffle_seed"]),
    }
    trace, theta = reference.replay_rounds([(x[s], y[s]) for s in shards], run, selections, rounds)
    return selections, trace, theta


def program_run(path: Path, rounds: int):
    cfg = load_config(path)
    shards, _, _ = build_datasets(cfg)
    state, history = train(shards, resolve_ram_weights(cfg),
                           replace(cfg.train, global_rounds=rounds))
    return history, state.theta_global.values


@pytest.mark.parametrize("preset, rounds, train_overrides", [
    ("synthetic_smoke", 20, {}),
    ("synthetic_smoke", 20, {"model": "mlp", "hidden_dims": "8,8"}),
    ("fig2a", 20, {}),
    ("fig2b", 20, {}),
    ("fig2c", 10, {}),
], ids=["smoke-logreg", "smoke-mlp", "fig2a", "fig2b", "fig2c"])
def test_rounds_match_reference_replay(tmp_path, preset, rounds, train_overrides):
    path = bundled_variant(tmp_path, preset, **train_overrides)
    assert load_config(path).train.risk.gamma < 1.0

    selections, trace, theta_ref = reference_replay(path, rounds)
    history, theta = program_run(path, rounds)

    assert history.selections() == selections.tolist()
    t_ref, loss_ref = (np.array(column) for column in zip(*trace))
    np.testing.assert_allclose([r.t_global for r in history.rounds], t_ref, rtol=RTOL, atol=0)
    np.testing.assert_allclose([r.train_loss_selected for r in history.rounds], loss_ref,
                               rtol=RTOL, atol=0)
    np.testing.assert_allclose(theta, theta_ref, rtol=RTOL, atol=0)

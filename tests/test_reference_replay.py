"""The round engine against an independent replay at gamma < 1.

`bench/reference.py` never imports ramfed: it rebuilds the data, the
partition, the selection stream, softmax/backprop and the composite
(theta, t) step from the README's recipes. Here it replays the first rounds
of each bundled synthetic preset and of random tiny runs, and the program
must agree with it.
"""

import configparser
import importlib.util
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramfed.channel import EXPLICIT, RandomAccessChannel, selection_weights
from ramfed.data import Dataset
from ramfed.experiments import build_datasets, load_config, resolve_ram_weights
from ramfed.models import LOGREG, MLP, ModelArch
from ramfed.risk import RiskConfig
from ramfed.training import Seeds, TrainConfig, train

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
    channel = RandomAccessChannel(resolve_ram_weights(cfg), cfg.train.seeds.ram)
    state, history = train(shards, channel, replace(cfg.train, global_rounds=rounds))
    return history, state.theta_global.values


@pytest.mark.parametrize("preset, rounds, train_overrides", [
    ("synthetic_smoke", 20, {}),
    ("synthetic_smoke", 20, {"model": "mlp", "hidden_dims": "8,8"}),
    ("fig2a", 20, {}),
    ("fig2b", 20, {}),
    ("fig2c", 100, {}),  # 500 local epochs of each of 30 users' shuffle streams
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


@st.composite
def tiny_runs(draw):
    """2-5 users of 1-12 rows, a logreg or small MLP, and a random TrainConfig."""
    num_classes, input_dim = draw(st.integers(2, 4)), draw(st.integers(1, 3))
    sizes = draw(st.lists(st.integers(1, 12), min_size=2, max_size=5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shards = [(rng.standard_normal((n, input_dim)), rng.integers(0, num_classes, size=n))
              for n in sizes]
    weights = draw(st.lists(st.floats(0.01, 1.0), min_size=len(sizes), max_size=len(sizes)))
    hidden = draw(st.sampled_from([(), (3,), (4, 2)]))
    cfg = TrainConfig(
        arch=ModelArch(MLP if hidden else LOGREG, input_dim, num_classes, hidden),
        global_rounds=draw(st.integers(1, 6)), local_epochs=draw(st.integers(1, 3)),
        batch_size=draw(st.integers(1, 12)),  # often leaves a short last batch
        lr_theta=draw(st.floats(1e-3, 0.5)), lr_t=draw(st.floats(0.0, 0.5)),
        risk=RiskConfig(draw(st.floats(0.05, 1.0, exclude_min=True)), draw(st.floats(0.0, 1.0))),
        seeds=Seeds(*(draw(st.integers(0, 2**32 - 1)) for _ in range(3))),
    )
    return shards, np.asarray(weights), cfg


@settings(max_examples=40, deadline=None)
@given(tiny_runs())
def test_random_tiny_runs_match_reference_replay(run):
    shards, weights, cfg = run
    arch, risk, rounds = cfg.arch, cfg.risk, cfg.global_rounds
    datasets = [Dataset(x, y, arch.num_classes) for x, y in shards]
    channel = RandomAccessChannel(selection_weights(EXPLICIT, weights.size, weights=weights),
                                  cfg.seeds.ram)
    state, history = train(datasets, channel, cfg)

    selections = reference.replay_selections(weights / weights.sum(), cfg.seeds.ram, rounds)
    trace, theta_ref = reference.replay_rounds(shards, {
        "shapes": reference.layer_shapes(arch.input_dim, arch.hidden_dims, arch.num_classes),
        "epochs": cfg.local_epochs, "batch": cfg.batch_size,
        "lr_theta": cfg.lr_theta, "lr_t": cfg.lr_t, "alpha": risk.alpha, "gamma": risk.gamma,
        "init_seed": cfg.seeds.init, "shuffle_seed": cfg.seeds.shuffle,
    }, selections, rounds)

    assert history.selections() == selections.tolist()
    # |a - b| <= RTOL * (1 + |b|), the scale of the benchmark's `close`.
    t_ref, loss_ref = (np.array(column) for column in zip(*trace))
    np.testing.assert_allclose([r.t_global for r in history.rounds], t_ref, rtol=RTOL, atol=RTOL)
    np.testing.assert_allclose([r.train_loss_selected for r in history.rounds], loss_ref,
                               rtol=RTOL, atol=RTOL)
    np.testing.assert_allclose(state.theta_global.values, theta_ref, rtol=RTOL, atol=RTOL)

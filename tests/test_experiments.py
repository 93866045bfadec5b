import configparser
import importlib.util
import os
import re
import textwrap
import warnings
import xml.etree.ElementTree as ElementTree
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramfed import charts, experiments
from ramfed.data import InputError, gen_synthetic_2d
from ramfed.experiments import (
    derive_seed,
    format_metrics,
    load_config,
    metrics_header,
    parse_metrics,
    resolve_ram_weights,
    run_experiment,
    sweep,
    write_config_echo,
)
from ramfed.models import LOGREG, ModelArch, init_params, load_params, save_params
from ramfed.training import DivergenceError

ROOT = Path(__file__).resolve().parents[1]
CONFIG_DIR = ROOT / "configs"
BUNDLED = sorted(path.name for path in CONFIG_DIR.glob("*.ini"))


def tiny_config(tmp_path, out_name="run", rounds=12, lr_theta="0.02", extra=""):
    text = textwrap.dedent(f"""
        [dataset]
        kind = synthetic2d
        num_classes = 3
        per_class = 30
        spread = 0.5
        seed = 2

        [partition]
        num_users = 3
        frequent_fraction = 67
        frequent_pattern_fraction = 67
        seed = 3

        [ram]
        kind = explicit
        weights = 0.5, 0.4, 0.1

        [train]
        global_rounds = {rounds}
        local_epochs = 1
        batch_size = 16
        lr_theta = {lr_theta}
        lr_t = 0.002
        model = logreg
        init_seed = 1
        ram_seed = 2
        shuffle_seed = 3

        [risk]
        alpha = 0.2
        gamma = 0.1

        [run]
        output_dir = {tmp_path / out_name}
        eval_every = 4
        smooth_window = 3
        {extra}
        """)
    path = tmp_path / "config.ini"
    path.write_text(text)
    return path


def bundled_variant(tmp_path, preset, out_name="run", **train):
    """A bundled config with [train] overrides, writing under tmp_path."""
    ini = configparser.ConfigParser(interpolation=None)
    ini.read(CONFIG_DIR / f"{preset}.ini")
    ini["train"].update(train)
    ini["run"]["output_dir"] = str(tmp_path / out_name)
    path = tmp_path / f"{preset}_variant.ini"
    with open(path, "w") as fh:
        ini.write(fh)
    return path


def read_echo(path):
    echo = configparser.ConfigParser(interpolation=None)
    assert echo.read(path, encoding="utf-8")
    return echo


def diverging_mlp(tmp_path):
    """synthetic_smoke as an MLP 8,8 whose logits overflow while theta is finite."""
    return bundled_variant(tmp_path, "synthetic_smoke", model="mlp", hidden_dims="8,8",
                           lr_theta="1e50")


class TestLoadConfig:
    def test_bundled_fig2a_values(self):
        cfg = load_config(CONFIG_DIR / "fig2a.ini")
        assert cfg.partition.num_users == 3
        np.testing.assert_allclose(cfg.ram.weights, (0.5, 0.4, 0.1))
        assert cfg.train.risk.alpha == 0.1
        assert cfg.train.risk.gamma == 0.1
        assert cfg.train.arch.kind == "logreg"

    def test_bundled_mnist_fig3_values(self):
        cfg = load_config(CONFIG_DIR / "mnist_fig3.ini")
        assert cfg.partition.num_users == 30
        assert cfg.partition.frequent_fraction == 90
        assert cfg.partition.frequent_pattern_fraction == 90
        assert cfg.train.risk.alpha == 0.3
        assert cfg.train.risk.gamma == 0.3
        assert cfg.train.global_rounds == 4000
        assert cfg.train.local_epochs == 10
        assert cfg.train.lr_theta == 1e-3
        assert cfg.train.lr_t == 1e-4
        assert cfg.train.arch.kind == "mlp"
        assert cfg.train.arch.hidden_dims == (128, 128)

    def test_all_bundled_configs_parse(self):
        for path in sorted(CONFIG_DIR.glob("*.ini")):
            load_config(path)

    def test_alpha_zero_rejected(self, tmp_path):
        path = tiny_config(tmp_path)
        text = path.read_text().replace("alpha = 0.2", "alpha = 0")
        path.write_text(text)
        with pytest.raises(InputError, match="alpha"):
            load_config(path)

    def test_unknown_key_named(self, tmp_path):
        path = tiny_config(tmp_path, extra="surprise = 1")
        with pytest.raises(InputError, match="surprise"):
            load_config(path)

    def test_misspelt_required_key_named_as_the_typo(self, tmp_path):
        path = tiny_config(tmp_path)
        path.write_text(path.read_text().replace("lr_theta = 0.02", "lr_thta = 0.02"))
        with pytest.raises(InputError, match="unknown key 'lr_thta'"):
            load_config(path)

    @pytest.mark.parametrize("old,new,key", [
        ("kind = explicit\nweights = 0.5, 0.4, 0.1", "kind = geometric\nweights = 1,2,3", "weights"),
        ("kind = explicit", "kind = explicit\nparam = 0.5", "param"),
        ("model = logreg", "model = logreg\nhidden_dims = 4", "hidden_dims"),
        ("kind = synthetic2d\nnum_classes = 3\nper_class = 30\nspread = 0.5\nseed = 2",
         "kind = mnist\nnum_classes = 5", "num_classes"),
        ("spread = 0.5", "spread = 0.5\ndir = data", "dir"),
    ], ids=["weights-geometric", "param-explicit", "hidden_dims-logreg", "num_classes-mnist",
            "dir-synthetic2d"])
    def test_key_the_kind_does_not_read_is_named(self, tmp_path, old, new, key):
        path = tiny_config(tmp_path)
        text = path.read_text()
        assert text.count(old) == 1
        path.write_text(text.replace(old, new))
        with pytest.raises(InputError, match=f"'{key}'"):
            load_config(path)

    def test_readme_config_table_lists_the_schema(self):
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        table = readme.split("## Config format", 1)[1].split("\n## ", 1)[0]
        rows = {}
        for line in table.splitlines():
            cells = line.split("|")
            if line.startswith("| `["):
                rows[cells[1].strip().strip("`[]")] = set(re.findall(r"`([a-z_]+)`", cells[2]))
        schema = {}
        for name, (kind_key, kinds) in experiments.SCHEMA.items():
            keys = {key for kind in kinds for key in experiments.section_keys(name, kind)}
            schema[name] = keys | set(experiments.IGNORED_KEYS.get(name, ()))
        assert rows == schema

    def test_unknown_section_named(self, tmp_path):
        path = tiny_config(tmp_path)
        path.write_text(path.read_text() + "\n[telemetry]\nx = 1\n")
        with pytest.raises(InputError, match="telemetry"):
            load_config(path)

    def test_missing_required_key_named(self, tmp_path):
        path = tiny_config(tmp_path)
        path.write_text(path.read_text().replace("lr_theta = 0.02\n", ""))
        with pytest.raises(InputError, match="lr_theta"):
            load_config(path)

    def test_weight_count_must_match_users(self, tmp_path):
        path = tiny_config(tmp_path)
        path.write_text(path.read_text().replace("0.5, 0.4, 0.1", "0.5, 0.5"))
        with pytest.raises(InputError, match="weights"):
            load_config(path)

    def test_defaults_recorded_for_echo(self, tmp_path):
        cfg = load_config(tiny_config(tmp_path))
        write_config_echo(cfg, tmp_path / "echo.ini")
        echo = read_echo(tmp_path / "echo.ini")
        assert echo["run"]["eval_every"] == "4"
        assert "workers" not in echo["run"]  # accepted and ignored
        assert echo["dataset"]["test_per_class"] == "30"  # filled default
        assert "hidden_dims" not in echo["train"]  # logreg reads no hidden_dims

    def test_seed_override_rederives_all_seeds(self, tmp_path):
        path = tiny_config(tmp_path)
        a = load_config(path, seed_override=99)
        b = load_config(path, seed_override=99)
        c = load_config(path, seed_override=100)
        assert a.train.seeds == b.train.seeds
        assert a.train.seeds != c.train.seeds
        assert a.partition.seed == b.partition.seed
        assert a.dataset.seed == b.dataset.seed
        write_config_echo(a, tmp_path / "echo.ini")
        echo = read_echo(tmp_path / "echo.ini")
        assert echo["train"]["init_seed"] == str(a.train.seeds.init)
        assert echo["partition"]["seed"] == str(a.partition.seed)
        assert echo["dataset"]["seed"] == str(a.dataset.seed)

    @pytest.mark.parametrize("seed", [None, 5])
    @pytest.mark.parametrize("preset", BUNDLED)
    def test_echo_loads_back_to_the_config(self, tmp_path, preset, seed):
        cfg = load_config(CONFIG_DIR / preset, seed_override=seed)
        write_config_echo(cfg, tmp_path / "echo.ini")
        assert load_config(tmp_path / "echo.ini") == cfg

    @pytest.mark.parametrize("text", [
        "[dataset]\nkind = synthetic2d\nkind = mnist\n",
        "[dataset]\nkind = synthetic2d\n[dataset]\nseed = 1\n",
        "kind = synthetic2d\n[dataset]\n",
        "[train]\nmodel\n",
        "[dataset]\nkind = synth\xe9tic2d\n",
    ], ids=["duplicate-key", "duplicate-section", "no-section-header", "no-value", "not-utf8"])
    def test_malformed_file_raises_config_error(self, tmp_path, text):
        path = tmp_path / "bad.ini"
        path.write_bytes(text.encode("latin-1"))
        with pytest.raises(InputError):
            load_config(path)

    @pytest.mark.parametrize("old,new", [
        ("lr_theta = 0.02", "lr_theta = nan"),
        ("lr_theta = 0.02", "lr_theta = inf"),
        ("lr_t = 0.002", "lr_t = nan"),
        ("lr_t = 0.002", "lr_t = -inf"),
        ("\nseed = 3", "\nseed = -1"),
        ("\nseed = 2", "\nseed = -1"),
        ("per_class = 30", "per_class = -1"),
        ("\nseed = 2", "\ntest_per_class = 0\nseed = 2"),
        ("spread = 0.5", "spread = -1"),
        ("spread = 0.5", "spread = nan"),
    ], ids=["lr_theta-nan", "lr_theta-inf", "lr_t-nan", "lr_t-neg-inf",
            "partition-seed", "dataset-seed", "per_class-negative", "test_per_class-zero",
            "spread-negative", "spread-nan"])
    def test_bad_value_raises_config_error(self, tmp_path, old, new):
        path = tiny_config(tmp_path)
        text = path.read_text()
        assert text.count(old) == 1
        path.write_text(text.replace(old, new))
        with pytest.raises(InputError, match=new.split()[0]):
            load_config(path)


class TestMalformedConfigs:
    """A damaged bundled config either loads or raises InputError, nothing else."""

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_truncation_line_deletion_or_byte_mutation(self, tmp_path_factory, data):
        blob = (CONFIG_DIR / data.draw(st.sampled_from(BUNDLED), label="preset")).read_bytes()
        how = data.draw(st.sampled_from(["truncate", "delete line", "mutate byte"]), label="how")
        if how == "truncate":
            damaged = blob[: data.draw(st.integers(0, len(blob) - 1), label="length")]
        elif how == "delete line":
            lines = blob.splitlines(keepends=True)
            at = data.draw(st.integers(0, len(lines) - 1), label="line")
            damaged = b"".join(lines[:at] + lines[at + 1 :])
        else:
            at = data.draw(st.integers(0, len(blob) - 1), label="offset")
            damaged = blob[:at] + bytes([data.draw(st.integers(0, 255), label="byte")]) + blob[at + 1 :]
        path = tmp_path_factory.getbasetemp() / "damaged.ini"
        path.write_bytes(damaged)
        try:
            load_config(path)
        except InputError:
            pass


class TestRunExperiment:
    def test_artifacts_and_schema(self, tmp_path):
        cfg = load_config(tiny_config(tmp_path))
        artifacts = run_experiment(cfg)
        text = artifacts.metrics_path.read_text()
        header = text.splitlines()[0]
        assert header == ",".join(metrics_header(3))
        assert header == (
            "round,overall_acc,per_class_acc_0,per_class_acc_1,per_class_acc_2,"
            "global_t,selected_user_freq_snapshot"
        )
        # 12 rounds at cadence 4 -> evaluations at rounds 4, 8, 12.
        assert [int(line.split(",")[0]) for line in text.splitlines()[1:]] == [4, 8, 12]

        parsed = parse_metrics(artifacts.metrics_path)
        assert parsed["per_class_acc"].shape == (3, 3)
        assert parsed["selection_freq"].shape == (3, 3)
        np.testing.assert_allclose(parsed["selection_freq"].sum(axis=1), 1.0, atol=1e-12)
        # Round-trip: re-serialising the parse gives the same bytes.
        rebuilt = format_metrics(artifacts.history, 3)
        assert rebuilt == text

    def test_channel_holds_the_resolved_weights(self, tmp_path, monkeypatch):
        # tail_three at K = 10: normalizing these weights a second time moves every one.
        text = tiny_config(tmp_path, rounds=1).read_text().replace("num_users = 3", "num_users = 10")
        config = tmp_path / "tail_three.ini"
        config.write_text(text.replace("kind = explicit\nweights = 0.5, 0.4, 0.1",
                                       "kind = tail_three"))
        channels = []

        def recording_train(shards, channel, *args, **kwargs):
            channels.append(channel)
            return real_train(shards, channel, *args, **kwargs)

        real_train = experiments.train
        monkeypatch.setattr(experiments, "train", recording_train)
        cfg = load_config(config)
        run_experiment(cfg)
        weights = resolve_ram_weights(cfg)
        assert weights.size == 10
        assert channels[0]._ram.weights.tobytes() == weights.tobytes()

    def test_byte_identical_reruns(self, tmp_path):
        path = tiny_config(tmp_path)
        cfg1 = load_config(path)
        cfg1.output_dir = tmp_path / "a"
        first = run_experiment(cfg1).metrics_path.read_bytes()
        cfg2 = load_config(path)
        cfg2.output_dir = tmp_path / "b"
        second = run_experiment(cfg2).metrics_path.read_bytes()
        assert first == second

    def test_workers_key_is_accepted_and_ignored(self, tmp_path):
        plain = run_experiment(load_config(tiny_config(tmp_path, out_name="plain")))
        cfg = load_config(tiny_config(tmp_path, out_name="workers", extra="workers = 4"))
        artifacts = run_experiment(cfg)
        assert "workers" not in read_echo(artifacts.echo_path)["run"]
        assert artifacts.metrics_path.read_bytes() == plain.metrics_path.read_bytes()

    def test_echo_contains_every_key(self, tmp_path):
        cfg = load_config(tiny_config(tmp_path))
        artifacts = run_experiment(cfg)
        echo = artifacts.echo_path.read_text()
        assert "batch_size = 16" in echo
        assert "eval_every = 4" in echo
        assert "test_per_class = 30" in echo  # filled default
        reloaded = load_config(artifacts.echo_path)
        assert reloaded.train == cfg.train

    def test_charts_are_valid_svg(self, tmp_path):
        cfg = load_config(tiny_config(tmp_path))
        artifacts = run_experiment(cfg)
        names = {p.name for p in artifacts.chart_paths}
        assert {"overall_accuracy.svg", "rare_class_accuracy.svg",
                "global_threshold.svg", "selection_weights.svg",
                "decision_boundary.svg"} <= names
        for path in artifacts.chart_paths:
            root = ElementTree.parse(path).getroot()
            assert root.tag.endswith("svg")

    def test_snapshot_loads_back(self, tmp_path):
        cfg = load_config(tiny_config(tmp_path))
        artifacts = run_experiment(cfg)
        params = load_params(artifacts.snapshot_path)
        assert params.arch == cfg.train.arch

    def test_interrupted_run_leaves_no_partial_metrics(self, tmp_path, monkeypatch):
        cfg = load_config(tiny_config(tmp_path))

        def boom(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(experiments, "train", boom)
        with pytest.raises(KeyboardInterrupt):
            run_experiment(cfg)
        assert not (cfg.output_dir / "metrics.csv").exists()
        assert not list(cfg.output_dir.glob("metrics.csv.*"))

    def test_divergence_preserves_partial_artifacts(self, tmp_path):
        cfg = load_config(tiny_config(tmp_path, rounds=9, lr_theta="1e308"))
        with pytest.raises(DivergenceError):
            run_experiment(cfg)
        assert (cfg.output_dir / "config_echo.ini").exists()
        assert (cfg.output_dir / "metrics.csv").exists()

    def test_overflow_diverges_without_numpy_warnings(self, tmp_path):
        cfg = load_config(diverging_mlp(tmp_path))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError):
                run_experiment(cfg)
        assert (cfg.output_dir / "metrics.csv").exists()

    def test_comparison_script_neutral_run_echoes_its_config(self, tmp_path):
        spec = importlib.util.spec_from_file_location(
            "run_synthetic_comparison", ROOT / "scripts" / "run_synthetic_comparison.py")
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        cfg = script.neutral_variant(load_config(tiny_config(tmp_path, rounds=2)))
        artifacts = run_experiment(cfg)
        assert artifacts.output_dir == tmp_path / "run_neutral"
        echo = read_echo(artifacts.echo_path)
        assert echo["run"]["output_dir"] == str(tmp_path / "run_neutral")
        assert (echo["risk"]["alpha"], echo["risk"]["gamma"]) == ("1.0", "1.0")
        assert load_config(artifacts.echo_path) == cfg


class TestAtomicArtifacts:
    """With the rename failing, no writer leaves a file at the final path or a temp file."""

    @pytest.fixture
    def failing_rename(self, monkeypatch):
        def boom(*args, **kwargs):
            raise OSError("rename refused")

        monkeypatch.setattr(os, "replace", boom)

    def test_snapshot(self, tmp_path, failing_rename):
        with pytest.raises(OSError, match="rename refused"):
            save_params(init_params(ModelArch(LOGREG, 2, 2), 1), tmp_path / "model.bin")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("draw", [
        lambda path: charts.line_chart(path, [1, 2], {"a": [0.5, 0.7]}, "t", "x", "y"),
        lambda path: charts.bar_chart(path, [0.2, 0.8], "t", "x", "y"),
        lambda path: charts.decision_boundary_chart(
            path, init_params(ModelArch(LOGREG, 2, 2), 1),
            gen_synthetic_2d(2, 5, 0.5, 0), grid=4),
    ], ids=["line", "bar", "decision_boundary"])
    def test_chart(self, tmp_path, failing_rename, draw):
        with pytest.raises(OSError, match="rename refused"):
            draw(tmp_path / "chart.svg")
        assert list(tmp_path.iterdir()) == []


class TestSweep:
    def test_grid_summary(self, tmp_path):
        path = tiny_config(tmp_path, rounds=6)
        rows, summary = sweep(path, alphas=[1.0, 0.2], gammas=[1.0, 0.1], repeats=1,
                              output_dir=tmp_path / "sweep")
        assert len(rows) == 4
        assert summary.exists()
        header = summary.read_text().splitlines()[0].split(",")
        assert header[:4] == ["alpha", "gamma", "repeats", "failures"]
        assert "rare_class_2_mean" in header
        for row in rows:
            assert row["overall_std"] == 0.0  # single repeat

    def test_cell_echo_is_the_cell_config(self, tmp_path):
        path = tiny_config(tmp_path, rounds=2)
        sweep(path, alphas=[0.2], gammas=[0.1], repeats=1, output_dir=tmp_path / "sweep")
        cell = tmp_path / "sweep" / "alpha_0.2_gamma_0.1" / "rep_0"
        echo = read_echo(cell / "config_echo.ini")
        assert echo["run"]["output_dir"] == str(cell)
        assert (echo["risk"]["alpha"], echo["risk"]["gamma"]) == ("0.2", "0.1")
        expected = load_config(path, seed_override=derive_seed(1, 0.2, 0.1, 0))
        assert load_config(cell / "config_echo.ini").train.seeds == expected.train.seeds

    def test_cell_seeds_are_stable_and_distinct(self):
        a = derive_seed(7, 0.3, 0.1, 0)
        assert a == derive_seed(7, 0.3, 0.1, 0)
        assert a != derive_seed(7, 0.3, 0.1, 1)
        assert a != derive_seed(7, 0.2, 0.1, 0)
        assert a != derive_seed(8, 0.3, 0.1, 0)

    def test_repeats_give_spread(self, tmp_path):
        path = tiny_config(tmp_path, rounds=6)
        rows, _ = sweep(path, alphas=[0.2], gammas=[0.1], repeats=2,
                        output_dir=tmp_path / "sweep2")
        (row,) = rows
        assert row["repeats"] == 2
        assert row["failures"] == 0

    def test_zero_rounds_cell_is_not_a_failure(self, tmp_path):
        path = bundled_variant(tmp_path, "synthetic_smoke", global_rounds="0")
        (row,), summary = sweep(path, alphas=[0.1], gammas=[0.1], repeats=1,
                                output_dir=tmp_path / "sweep")
        assert row["failures"] == 0
        assert np.isnan(row["overall_mean"]) and np.isnan(row["rare_class_2_mean"])
        assert summary.read_text().splitlines()[1].split(",")[3] == "0"

    def test_bad_level_raises_before_any_cell_runs(self, tmp_path):
        path = tiny_config(tmp_path, rounds=3)
        with pytest.raises(InputError, match="alpha"):
            sweep(path, alphas=[0.1, 0.0], gammas=[0.1], repeats=1, output_dir=tmp_path / "sweep")
        assert not (tmp_path / "sweep").exists()

    def test_any_failing_cell_is_a_recorded_failure(self, tmp_path, monkeypatch, capsys):
        real = experiments.run_experiment

        def fail_one_cell(cfg):
            if cfg.train.risk.gamma == 1.0:
                raise RuntimeError("cell failed")
            return real(cfg)

        monkeypatch.setattr(experiments, "run_experiment", fail_one_cell)
        rows, summary = sweep(tiny_config(tmp_path, rounds=2), alphas=[0.2], gammas=[0.1, 1.0],
                              repeats=2, output_dir=tmp_path / "sweep")
        assert [row["failures"] for row in rows] == [0, 2]
        assert len(summary.read_text().splitlines()) == 3
        assert capsys.readouterr().err.count("RuntimeError: cell failed") == 2

    def test_overflowing_cells_are_recorded_failures(self, tmp_path):
        rows, summary = sweep(diverging_mlp(tmp_path), alphas=[0.1], gammas=[0.1, 1.0],
                              repeats=1, output_dir=tmp_path / "sweep")
        assert [row["failures"] for row in rows] == [1, 1]
        assert len(summary.read_text().splitlines()) == 3

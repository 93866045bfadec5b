import contextlib
import gzip
import io
import os
import shutil
import textwrap
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramfed.cli import check_cvar, check_grad, main
from ramfed.data import load_csv, write_idx
from ramfed.experiments import DATA_DIR_ENV, load_config
from ramfed.models import MLP, ModelArch, init_params, save_params

from test_experiments import CONFIG_DIR, diverging_mlp, read_echo, tiny_config


def mnist_config(tmp_path, idx_dir):
    """A one-round MNIST-kind config that reads the IDX files under ``idx_dir``."""
    config = tmp_path / "mnist.ini"
    config.write_text(textwrap.dedent(f"""
        [dataset]
        kind = mnist
        dir = {idx_dir}
        test_subset = 20
        [partition]
        num_users = 4
        frequent_fraction = 75
        frequent_pattern_fraction = 80
        [ram]
        kind = tail_three
        [train]
        global_rounds = 1
        local_epochs = 1
        batch_size = 8
        lr_theta = 0.01
        lr_t = 0.001
        model = mlp
        hidden_dims = 5
        [risk]
        alpha = 0.3
        gamma = 0.3
        [run]
        output_dir = {tmp_path / "run"}
        """))
    return config


def write_idx_dir(tmp_path, rows=30):
    """MNIST-layout train and t10k IDX files of ``rows`` random images each."""
    rng = np.random.default_rng(0)
    idx_dir = tmp_path / "idx"
    idx_dir.mkdir()
    for split in ("train", "t10k"):
        (idx_dir / f"{split}-images-idx3-ubyte").write_bytes(
            write_idx(rng.integers(0, 256, size=(rows, 28, 28))))
        (idx_dir / f"{split}-labels-idx1-ubyte").write_bytes(write_idx(np.arange(rows) % 10))
    return idx_dir


class TestSelfChecks:
    def test_check_grad_small(self):
        assert check_grad(trials=10) <= 1e-4

    def test_check_cvar_small(self):
        assert check_cvar(trials=50) <= 1e-5


class TestCommands:
    def test_train_then_eval(self, tmp_path, capsys):
        config = tiny_config(tmp_path)
        assert main(["train", str(config)]) == 0
        out = capsys.readouterr().out
        assert "metrics:" in out and "final round 12" in out

        snapshot = tmp_path / "run" / "model.bin"
        assert main(["eval", str(config), str(snapshot)]) == 0
        out = capsys.readouterr().out
        assert "overall accuracy" in out

    def test_eval_reads_only_the_test_files(self, tmp_path, capsys):
        # Only the t10k-* files exist: eval must not load or partition the train set.
        rng = np.random.default_rng(0)
        idx_dir = tmp_path / "idx"
        idx_dir.mkdir()
        (idx_dir / "t10k-images-idx3-ubyte").write_bytes(
            write_idx(rng.integers(0, 256, size=(30, 28, 28))))
        (idx_dir / "t10k-labels-idx1-ubyte").write_bytes(write_idx(np.arange(30) % 10))
        config = mnist_config(tmp_path, idx_dir)
        snapshot = tmp_path / "model.bin"
        save_params(init_params(ModelArch(MLP, 784, 10, (5,)), 3), snapshot)
        assert main(["eval", str(config), str(snapshot)]) == 0
        assert "overall accuracy" in capsys.readouterr().out

    def test_malformed_idx_is_one_line_and_exit_2(self, tmp_path, capsys):
        idx_dir = write_idx_dir(tmp_path)
        (idx_dir / "train-images-idx3-ubyte").write_bytes(b"\x00\x00\x08\x04" + bytes(16))
        assert main(["train", str(mnist_config(tmp_path, idx_dir))]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "train-images-idx3-ubyte: bad magic 0x00000804 (offset 0)" in err

    def test_idx_count_mismatch_is_one_line_and_exit_2(self, tmp_path, capsys):
        idx_dir = write_idx_dir(tmp_path)
        (idx_dir / "train-labels-idx1-ubyte").write_bytes(write_idx(np.arange(29) % 10))
        assert main(["train", str(mnist_config(tmp_path, idx_dir))]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "train-labels-idx1-ubyte: label count 29 != image count 30" in err

    @pytest.mark.parametrize("damage", [
        lambda blob: blob[: len(blob) // 2],
        lambda blob: blob[:10] + b"\xff" * 30,
        lambda blob: blob[:-8] + bytes(4) + blob[-4:],
    ], ids=["truncated", "bad-deflate", "bad-crc"])
    def test_corrupt_gzip_idx_is_one_line_and_exit_2(self, tmp_path, capsys, damage):
        idx_dir = write_idx_dir(tmp_path)
        path = idx_dir / "train-labels-idx1-ubyte"
        (idx_dir / "train-labels-idx1-ubyte.gz").write_bytes(
            damage(gzip.compress(path.read_bytes())))
        path.unlink()
        assert main(["train", str(mnist_config(tmp_path, idx_dir))]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "train-labels-idx1-ubyte.gz: corrupt gzip stream" in err

    def test_directory_as_config_is_one_line_and_exit_2(self, tmp_path, capsys):
        assert main(["train", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(tmp_path) in err
        assert err.count("\n") == 1

    def test_uncoverable_partition_is_one_line_and_exit_2(self, tmp_path, capsys):
        text = tiny_config(tmp_path).read_text().replace("num_users = 3", "num_users = 200")
        config = tmp_path / "many_users.ini"
        config.write_text(text.replace("kind = explicit\nweights = 0.5, 0.4, 0.1",
                                       "kind = tail_three"))
        assert main(["train", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "cannot cover" in err

    def test_seed_override_is_deterministic(self, tmp_path):
        config = tiny_config(tmp_path)
        assert main(["train", str(config), "--seed", "5",
                     "--output-dir", str(tmp_path / "s5a")]) == 0
        assert main(["train", str(config), "--seed", "5",
                     "--output-dir", str(tmp_path / "s5b")]) == 0
        assert main(["train", str(config), "--seed", "6",
                     "--output-dir", str(tmp_path / "s6")]) == 0
        a = (tmp_path / "s5a" / "metrics.csv").read_bytes()
        b = (tmp_path / "s5b" / "metrics.csv").read_bytes()
        c = (tmp_path / "s6" / "metrics.csv").read_bytes()
        assert a == b
        assert a != c

    def test_echo_holds_the_output_dir_override(self, tmp_path):
        config = tiny_config(tmp_path, rounds=2)
        out = tmp_path / "elsewhere"
        assert main(["train", str(config), "--seed", "5", "--output-dir", str(out)]) == 0
        assert read_echo(out / "config_echo.ini")["run"]["output_dir"] == str(out)
        reloaded = load_config(out / "config_echo.ini")
        expected = load_config(config, seed_override=5)
        expected.output_dir = out
        assert reloaded == expected

    def test_overflowing_run_exits_nonzero_with_metrics(self, tmp_path, capsys):
        assert main(["train", str(diverging_mlp(tmp_path))]) == 1
        assert "run diverged" in capsys.readouterr().err
        assert (tmp_path / "run" / "metrics.csv").exists()

    @pytest.mark.filterwarnings("error")  # outside pytest a warning is a second stderr line
    def test_features_near_the_float_limit_diverge_on_one_line(self, tmp_path, capsys):
        text = (CONFIG_DIR / "synthetic_smoke.ini").read_text()
        assert "spread = 0.6\n" in text
        config = tmp_path / "smoke.ini"
        config.write_text(text.replace("spread = 0.6\n", "spread = 1e307\n"))
        assert main(["train", str(config), "--output-dir", str(tmp_path / "run")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("run diverged: ") and err.count("\n") == 1

    def test_config_error_is_one_line_and_exit_2(self, tmp_path, capsys):
        config = tiny_config(tmp_path, extra="surprise = 1")
        assert main(["train", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "surprise" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("snapshot, named", [
        (lambda path: save_params(init_params(ModelArch(MLP, 784, 10, (5,)), 3), path),
         "input_dim=784, num_classes=10, hidden_dims=(5,)), config"),
        (lambda path: path.write_bytes(b"RFP1\x07"), "truncated snapshot"),
        (lambda path: path.mkdir(), "Is a directory"),
    ], ids=["architecture-mismatch", "truncated", "directory"])
    def test_bad_snapshot_is_one_line_and_exit_2(self, tmp_path, capsys, snapshot, named):
        config = tiny_config(tmp_path)
        path = tmp_path / "model.bin"
        snapshot(path)
        assert main(["eval", str(config), str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: snapshot ") and named in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("alpha", ["0.1,abc", "0.1,0.0"])
    def test_bad_sweep_level_is_one_line_and_exit_2(self, tmp_path, capsys, alpha):
        config = tiny_config(tmp_path, rounds=2)
        assert main(["sweep", str(config), "--alpha", alpha, "--gamma", "0.1",
                     "--output-dir", str(tmp_path / "sw")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "sw").exists()

    def test_gen_data_writes_csv(self, tmp_path, capsys):
        config = tiny_config(tmp_path)
        out_csv = tmp_path / "synth.csv"
        assert main(["gen-data", str(config), "--out", str(out_csv)]) == 0
        data = load_csv(out_csv)
        assert len(data) == 90
        assert data.num_classes == 3

    def test_sweep_command(self, tmp_path, capsys):
        config = tiny_config(tmp_path, rounds=4)
        assert main(["sweep", str(config), "--alpha", "1.0", "--gamma", "1.0,0.5",
                     "--repeats", "1", "--output-dir", str(tmp_path / "sw")]) == 0
        out = capsys.readouterr().out
        assert "summary:" in out
        assert (tmp_path / "sw" / "sweep_summary.csv").exists()

    def test_check_subcommands(self, capsys):
        assert main(["check-grad", "--trials", "5"]) == 0
        assert main(["check-cvar", "--trials", "20"]) == 0
        out = capsys.readouterr().out
        assert "check-grad" in out and "check-cvar" in out


def _on_idx_dir(damage):
    """A train run over the MNIST fixture after ``damage(idx_dir)``, which returns
    the text the error must name."""
    def setup(tmp_path):
        idx_dir = write_idx_dir(tmp_path)
        named = damage(idx_dir)
        return ["train", str(mnist_config(tmp_path, idx_dir))], named
    return setup


def _dir_in_place_of_labels(idx_dir):
    path = idx_dir / "train-labels-idx1-ubyte"
    path.unlink()
    path.mkdir()
    return str(path)


def _flip_label_bit(idx_dir):
    path = idx_dir / "train-labels-idx1-ubyte"
    blob = bytearray(path.read_bytes())
    assert blob[8 + 2] == 2  # the third label; flipping bit 3 makes it 10
    blob[8 + 2] ^= 0x08
    path.write_bytes(bytes(blob))
    return str(path)


def _write_images(idx_dir, images):
    path = idx_dir / "train-images-idx3-ubyte"
    path.write_bytes(write_idx(images))
    return str(path)


def _zero_rows(idx_dir):
    _write_images(idx_dir, np.zeros((0, 28, 28)))
    (idx_dir / "train-labels-idx1-ubyte").write_bytes(write_idx(np.zeros(0)))
    return "train-labels-idx1-ubyte"


def _output_dir_is_a_file(command, *levels):
    def setup(tmp_path):
        taken = tmp_path / "taken"
        taken.write_text("")
        return [command, str(tiny_config(tmp_path)), *levels, "--output-dir", str(taken)], str(taken)
    return setup


def _gen_data_into_a_directory(tmp_path):
    target = tmp_path / "csv_dir"
    target.mkdir()
    return ["gen-data", str(tiny_config(tmp_path)), "--out", str(target)], str(target)


def _config_text(edit, named):
    """A train run of the tiny synthetic config after ``edit`` of its text."""
    def setup(tmp_path):
        path = tiny_config(tmp_path)
        path.write_text(edit(path.read_text()))
        return ["train", str(path)], named(path)
    return setup


def _config_not_utf8(tmp_path):
    path = tiny_config(tmp_path)
    path.write_bytes(path.read_bytes().replace(b"spread = 0.5", b"spread = 0.\xff"))
    return ["train", str(path)], str(path)


def _mnist_config_line(line, named):
    def setup(tmp_path):
        path = mnist_config(tmp_path, write_idx_dir(tmp_path))
        path.write_text(path.read_text().replace("test_subset = 20", line))
        return ["train", str(path)], named
    return setup


def _negative_seed(command, *rest):
    """``command`` on the tiny config with ``--seed -1``; ``rest`` holds flags and file names."""
    def setup(tmp_path):
        files = [arg if arg.startswith("--") else str(tmp_path / arg) for arg in rest]
        argv = [command, str(tiny_config(tmp_path)), *files, "--seed", "-1"]
        return argv, "--seed must be at least 0, got -1"
    return setup


def _too_few_trials(command, trials):
    return lambda _: ([command, "--trials", trials], f"--trials must be at least 1, got {trials}")


@pytest.mark.filterwarnings("error")  # outside pytest a warning is a second stderr line
@pytest.mark.parametrize("setup", [
    _on_idx_dir(_dir_in_place_of_labels),
    _on_idx_dir(_flip_label_bit),
    _on_idx_dir(lambda idx_dir: _write_images(idx_dir, np.zeros((30, 10, 10)))),
    _on_idx_dir(lambda idx_dir: _write_images(idx_dir, np.arange(30) % 10)),
    _on_idx_dir(_zero_rows),
    _output_dir_is_a_file("train"),
    _output_dir_is_a_file("sweep", "--alpha", "0.5", "--gamma", "0.5"),
    _gen_data_into_a_directory,
    _config_text(lambda text: text.replace("spread = 0.5", "spread = inf"), lambda _: "spread"),
    _config_text(lambda text: text.replace("spread = 0.5", "spread = 1e308"), lambda _: "spread"),
    _config_text(lambda text: "kind = synthetic2d\n" + text, str),
    _config_text(lambda text: text + "a line without a value\n", str),
    _config_not_utf8,
    _config_text(lambda text: text.replace("kind = explicit\nweights = 0.5, 0.4, 0.1",
                                           "kind = geometric\nparam = 1.5"),
                 lambda _: "[ram] param = 1.5"),
    _config_text(lambda text: text.replace("weights = 0.5, 0.4, 0.1", "weights = 0, 0, 0"),
                 lambda _: "[ram] weights"),
    _mnist_config_line("subset = -5\ntest_subset = 20", "[dataset] subset "),
    _mnist_config_line("test_subset = -7", "[dataset] test_subset "),
    _negative_seed("train"),
    _negative_seed("eval", "model.bin"),
    _negative_seed("gen-data", "--out", "blobs.csv"),
    _too_few_trials("check-grad", "-1"),
    _too_few_trials("check-cvar", "0"),
], ids=["idx-entry-is-a-directory", "label-byte-out-of-range", "images-10x10",
        "images-hold-labels", "zero-rows", "train-output-dir-is-a-file",
        "sweep-output-dir-is-a-file", "gen-data-out-is-a-directory", "spread-inf",
        "spread-1e308", "line-before-any-section", "malformed-line", "config-not-utf8",
        "geometric-param-1.5", "explicit-weights-all-zero",
        "subset-negative", "test_subset-negative", "train-seed-negative", "eval-seed-negative",
        "gen-data-seed-negative", "check-grad-trials-negative", "check-cvar-trials-zero"])
def test_bad_input_is_one_named_line_and_exit_2(tmp_path, capsys, setup):
    argv, named = setup(tmp_path)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert named in err


FAULT_CONFIG = textwrap.dedent("""
    [dataset]
    kind = mnist
    dir = idx
    [partition]
    num_users = 3
    frequent_fraction = 67
    frequent_pattern_fraction = 80
    [ram]
    weights = 0.5, 0.4, 0.1
    [train]
    global_rounds = 2
    local_epochs = 1
    batch_size = 16
    lr_theta = 0.05
    lr_t = 0.01
    model = logreg
    [risk]
    alpha = 0.3
    gamma = 0.3
    [run]
    output_dir = run
    """)


@pytest.fixture(scope="module")
def fault_inputs(tmp_path_factory):
    """A 3-user, 2-round logreg config, its 120-row MNIST-layout directory and a snapshot
    it trained; paths are relative, so every copy has the same bytes."""
    root = tmp_path_factory.mktemp("fault_inputs")
    write_idx_dir(root, rows=120)
    (root / "config.ini").write_text(FAULT_CONFIG)
    with contextlib.chdir(root):
        assert _run(["train", "config.ini"]) == (0, "")
    shutil.copy(root / "run" / "model.bin", root / "model.bin")
    shutil.rmtree(root / "run")
    return root


def _run(argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


FAULT_TARGETS = ["config.ini", "model.bin", "idx/t10k-images-idx3-ubyte",
                 "idx/t10k-labels-idx1-ubyte", "idx/train-images-idx3-ubyte",
                 "idx/train-labels-idx1-ubyte"]


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_one_fault_in_any_input_exits_0_2_or_diverged(fault_inputs, tmp_path_factory, data):
    """One fault in the config, the snapshot or an IDX file: ``train`` and ``eval``
    succeed, print one ``error:`` line and exit 2, or report a diverged run."""
    root = tmp_path_factory.mktemp("fault")
    shutil.copytree(fault_inputs, root, dirs_exist_ok=True)
    target = root / data.draw(st.sampled_from(FAULT_TARGETS), label="file")
    fault = data.draw(st.sampled_from(["truncate", "flip bit", "delete", "directory",
                                       "non-utf8"]), label="fault")
    blob = target.read_bytes()
    if fault == "truncate":
        target.write_bytes(blob[: data.draw(st.integers(0, len(blob) - 1), label="length")])
    elif fault == "flip bit":
        bit = data.draw(st.integers(0, 8 * len(blob) - 1), label="bit")
        flipped = bytearray(blob)
        flipped[bit // 8] ^= 1 << bit % 8
        target.write_bytes(bytes(flipped))
    elif fault == "non-utf8":
        at = data.draw(st.integers(0, len(blob)), label="offset")
        target.write_bytes(blob[:at] + b"\xff\xc3" + blob[at:])
    else:
        target.unlink()
        if fault == "directory":
            target.mkdir()
    # An emptied `dir` must not find other data; `--output-dir` keeps a flipped
    # `output_dir` from writing outside the copy.
    with contextlib.chdir(root), mock.patch.dict(os.environ):
        os.environ.pop(DATA_DIR_ENV, None)
        for argv in (["train", "config.ini", "--output-dir", "out"],
                     ["eval", "config.ini", "model.bin"]):
            code, err = _run(argv)
            assert (code == 0 or (code == 2 and err.startswith("error: ") and err.count("\n") == 1)
                    or (code == 1 and err.startswith("run diverged: "))), (argv[0], code, err)

import gzip
import textwrap

import numpy as np
import pytest

from ramfed.cli import check_cvar, check_grad, main
from ramfed.data import load_csv, write_idx
from ramfed.experiments import load_config
from ramfed.models import MLP, ModelArch, init_params, save_params

from test_experiments import diverging_mlp, read_echo, tiny_config


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

import pytest

from ramfed.cli import check_cvar, check_grad, main
from ramfed.data import load_csv
from ramfed.experiments import load_config

from test_experiments import diverging_mlp, read_echo, tiny_config


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

"""scripts/preset_hashes.py: its cases, and a stable line for one checkout."""

import importlib.util
import re
from pathlib import Path

from ramfed.experiments import load_config
from ramfed.models import MLP

ROOT = Path(__file__).resolve().parents[1]

_spec = importlib.util.spec_from_file_location("preset_hashes", ROOT / "scripts" / "preset_hashes.py")
preset_hashes = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(preset_hashes)


def test_synthetic_smoke_line_is_the_same_twice():
    first = preset_hashes.case_line(ROOT, "synthetic_smoke")
    assert re.fullmatch(r"synthetic_smoke [0-9a-f]{16}/[0-9a-f]{16}", first)
    assert preset_hashes.case_line(ROOT, "synthetic_smoke") == first


def test_mlp_case_is_synthetic_smoke_as_mlp_8_8(tmp_path):
    mlp = load_config(preset_hashes.case_config(ROOT, preset_hashes.MLP_8_8, tmp_path))
    smoke = load_config(ROOT / "configs" / "synthetic_smoke.ini")
    assert (mlp.train.arch.kind, mlp.train.arch.hidden_dims) == (MLP, (8, 8))
    assert (mlp.dataset, mlp.partition, mlp.train.global_rounds) == (
        smoke.dataset, smoke.partition, smoke.train.global_rounds)


def test_mnist_fixture_case_is_the_benchmark_config_at_seed_1(tmp_path):
    cfg = load_config(preset_hashes.case_config(ROOT, preset_hashes.MNIST_FIXTURE, tmp_path))
    assert (cfg.dataset.kind, cfg.ram.kind, cfg.train.global_rounds) == ("mnist", "tail_three", 5)
    assert (cfg.train.arch.kind, cfg.train.arch.hidden_dims) == (MLP, (64,))
    assert Path(cfg.dataset.dir).parent == tmp_path / "plan"

"""scripts/bench_pairs.py: seed parsing, the per-metric verdicts, checkout state."""

import importlib.util
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

BOUND = 0.25
SPLIT = [5.0, 15.0] * 5  # median 10, IQR 10: wider than BOUND of the median


@pytest.mark.parametrize("text, seeds", [
    ("201-210", list(range(201, 211))),
    ("1,5,9", [1, 5, 9]),
    ("7", [7]),
    ("3-3", [3]),
])
def test_parse_seeds(text, seeds):
    assert bench_pairs.parse_seeds(text) == seeds


@pytest.mark.parametrize("parent, change, better, verdict", [
    # Every pair won, and the median gain (5) is far above the parent's IQR.
    ([10.0, 10.1, 9.9, 10.0, 10.2] * 2, [15.0, 15.1, 14.9, 15.0, 15.2] * 2, "higher", "gain"),
    ([10.0, 10.1, 9.9, 10.0, 10.2] * 2, [5.0, 5.1, 4.9, 5.0, 5.2] * 2, "lower", "gain"),
    # The median is worse by 40%, more than the bound.
    ([10.0] * 10, [6.0] * 10, "higher", "worse"),
    ([10.0] * 10, [14.0] * 10, "lower", "worse"),
    # The parent's IQR is wider than the bound and the sides overlap.
    (SPLIT, SPLIT, "higher", "unresolved"),
    # Same spread, but every change run beats every parent run: resolved, not a gain, since the
    # median gain (6) is below the IQR (10).
    (SPLIT, [16.0] * 10, "higher", "within bound"),
    (SPLIT, [4.0] * 10, "lower", "within bound"),
    # Narrow runs, medians 5% apart: inside the bound.
    ([10.0, 10.1, 9.9, 10.0, 10.2] * 2, [9.5, 10.6, 9.4, 10.5, 9.6] * 2, "higher", "within bound"),
])
def test_summarise_verdicts(parent, change, better, verdict):
    result = bench_pairs.summarise(parent, change, better, BOUND)
    assert result["verdict"] == verdict
    assert result["pairs"] == len(parent)
    assert result["parent"] == parent and result["change"] == change


def test_summarise_counts_wins_ties_and_quartiles():
    result = bench_pairs.summarise([1.0, 2.0, 3.0, 4.0, 5.0], [1.0, 3.0, 2.0, 5.0, 6.0],
                                   "higher", BOUND)
    assert (result["change_wins"], result["ties"]) == (3, 1)
    assert result["parent_q1_median_q3"] == [2.0, 3.0, 4.0]
    assert result["parent_iqr"] == 2.0
    assert result["median_change_rel"] == 0.0


def test_checkout_state(tmp_path, monkeypatch):
    monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path.parent))  # no repository above
    assert bench_pairs.checkout_state(tmp_path) == {"commit": None, "dirty": False}

    def git(*args):
        return subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
                              cwd=tmp_path, check=True, capture_output=True, text=True).stdout

    git("init", "-q")
    (tmp_path / "a.txt").write_text("a\n", encoding="utf-8")
    git("add", "a.txt")
    git("commit", "-q", "-m", "a")
    head = git("rev-parse", "HEAD").strip()
    assert bench_pairs.checkout_state(tmp_path) == {"commit": head, "dirty": False}
    (tmp_path / "a.txt").write_text("b\n", encoding="utf-8")
    assert bench_pairs.checkout_state(tmp_path) == {"commit": head, "dirty": True}

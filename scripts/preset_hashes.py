"""Print the sha256 prefixes that the determinism contract pins, for one checkout.

    python3 scripts/preset_hashes.py CHECKOUT

One line per case, `NAME METRICS/MODEL`: the first 16 hex digits of the
sha256 of `metrics.csv` and `model.bin` after `ramfed train` of the
synthetic_smoke, fig2a, fig2b and fig2c presets and of synthetic_smoke as
an MLP with `hidden_dims = 8,8`. Then `grid SUMMARY` is the prefix of
`sweep_summary.csv` after README's alpha x gamma grid (5 repeats) on
synthetic_smoke. A last `mnist-fixture METRICS/MODEL` line trains the
inputs that CHECKOUT/bench/workloads.py writes for mnist-mlp-train at seed 1
and 4 seconds: the MNIST-shaped IDX fixture, tail_three selection, 5
rounds. It is the one pinned run whose channel draws from weights that a
second normalization moves. Each case runs `python -m ramfed.cli` from
CHECKOUT/src with one BLAS thread in a temporary directory. Run it on two
checkouts and compare the output to see whether a change kept the bytes.
Standard library only, apart from what bench/workloads.py imports (NumPy)
to write the fixture.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

DIGITS = 16
MLP_8_8 = "synthetic_smoke_mlp8-8"
MNIST_FIXTURE = "mnist-fixture"
CASES = ("synthetic_smoke", "fig2a", "fig2b", "fig2c", MLP_8_8)
GRID = ("--alpha", "1.0,0.3,0.2,0.1", "--gamma", "0.0,0.1,0.2,0.3,1.0", "--repeats", "5")
ONE_THREAD = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                     "MKL_NUM_THREADS")}


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()[:DIGITS]


def ramfed(checkout: Path, work: Path, *args: str) -> None:
    """`python -m ramfed.cli ARGS` on the checkout's source, in ``work``."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"), **ONE_THREAD)
    proc = subprocess.run([sys.executable, "-m", "ramfed.cli", *args], cwd=work, env=env,
                          capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"ramfed {' '.join(args)} exited {proc.returncode}:\n{proc.stderr}")


def case_config(checkout: Path, name: str, work: Path) -> Path:
    """A bundled preset, synthetic_smoke with `model = mlp` and `hidden_dims = 8,8`, or the
    mnist-mlp-train benchmark's config over its IDX fixture, written under ``work``."""
    if name == MNIST_FIXTURE:
        sys.path.insert(0, str(checkout / "bench"))  # workloads imports its sibling reference
        try:
            import workloads
        finally:
            sys.path.pop(0)
        plan = workloads.make_plan("mnist-mlp-train", 1, 4, work / "plan")
        return Path(plan["jobs"][0]["config"])
    if name != MLP_8_8:
        return checkout / "configs" / f"{name}.ini"
    text = (checkout / "configs" / "synthetic_smoke.ini").read_text(encoding="utf-8")
    if "model = logreg\n" not in text:
        raise ValueError("synthetic_smoke.ini no longer reads `model = logreg`")
    path = work / "synthetic_smoke_mlp8-8.ini"
    path.write_text(text.replace("model = logreg\n", "model = mlp\nhidden_dims = 8,8\n"),
                    encoding="utf-8")
    return path


def case_line(checkout: Path, name: str) -> str:
    checkout = checkout.resolve()
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        ramfed(checkout, work, "train", str(case_config(checkout, name, work)),
               "--output-dir", str(work / "run"))
        return f"{name} {digest(work / 'run' / 'metrics.csv')}/{digest(work / 'run' / 'model.bin')}"


def grid_line(checkout: Path) -> str:
    checkout = checkout.resolve()
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        ramfed(checkout, work, "sweep", str(checkout / "configs" / "synthetic_smoke.ini"),
               *GRID, "--output-dir", str(work / "grid"))
        return f"grid {digest(work / 'grid' / 'sweep_summary.csv')}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("checkout", type=Path, help="a checkout of the repository")
    args = parser.parse_args(argv)
    for name in CASES:
        print(case_line(args.checkout, name), flush=True)
    print(grid_line(args.checkout), flush=True)
    print(case_line(args.checkout, MNIST_FIXTURE), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

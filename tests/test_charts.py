"""The decision chart draws the model's argmax regions, cell for cell.

SVG bytes are outside the determinism contract, so the check reads the
region rects back into a grid of colours and compares it with the argmax of
the model on the chart's mesh, built here independently of the chart code.
"""

import xml.etree.ElementTree as ElementTree

import numpy as np
import pytest

from ramfed import charts
from ramfed.data import gen_synthetic_2d
from ramfed.models import LOGREG, MLP, ModelArch, forward, init_params
from ramfed.risk import RiskConfig
from ramfed.training import Seeds, TrainConfig, local_update

GRID = 100
SVG_RECT = "{http://www.w3.org/2000/svg}rect"


def region_colours(path) -> np.ndarray:
    """The fill of each grid cell; every cell must be drawn exactly once."""
    cell_w = (charts.WIDTH - 2 * charts.PAD) / GRID
    cell_h = (charts.HEIGHT - 2 * charts.PAD) / GRID
    colours = np.full((GRID, GRID), None, dtype=object)
    for rect in ElementTree.parse(path).getroot().iter(SVG_RECT):
        if rect.get("fill-opacity") != "0.25":
            continue  # background and legend rects
        row = round((charts.HEIGHT - charts.PAD - float(rect.get("y"))) / cell_h) - 1
        start = round((float(rect.get("x")) - charts.PAD) / cell_w)
        end = start + round((float(rect.get("width")) - 0.5) / cell_w)
        assert end > start and all(c is None for c in colours[row, start:end])
        colours[row, start:end] = rect.get("fill")
    assert all(c is not None for c in colours.flat)
    return colours


@pytest.mark.parametrize("arch", [ModelArch(LOGREG, 2, 3), ModelArch(MLP, 2, 3, (8, 8))],
                         ids=["logreg", "mlp8-8"])
def test_regions_equal_argmax_on_the_mesh(tmp_path, arch):
    data = gen_synthetic_2d(3, 40, 0.6, 2)
    cfg = TrainConfig(arch, global_rounds=1, local_epochs=20, batch_size=16, lr_theta=0.5,
                      lr_t=0.0, risk=RiskConfig(1.0, 1.0), seeds=Seeds(1, 2, 3))
    start = init_params(arch, 1)
    params, _ = local_update(data, 0, start, 0.0, cfg)
    path = tmp_path / "decision_boundary.svg"
    charts.decision_boundary_chart(path, params, data, grid=GRID, margin=1.0)

    x_lo, y_lo = data.features.min(axis=0) - 1.0
    x_hi, y_hi = data.features.max(axis=0) + 1.0
    mesh = np.array([[x, y] for y in np.linspace(y_lo, y_hi, GRID)
                     for x in np.linspace(x_lo, x_hi, GRID)])
    regions = forward(params, mesh).argmax(axis=1).reshape(GRID, GRID)
    expected = np.array(charts.PALETTE, dtype=object)[regions % len(charts.PALETTE)]

    drawn = region_colours(path)
    assert len(set(expected.flat)) > 1
    assert (drawn == expected).all()

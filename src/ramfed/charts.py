"""Static SVG charts for run histories: line, bar, and decision-boundary plots.

Self-contained SVG strings with no external assets, so outputs are
diff-able in tests. Smoothing (trailing moving average) is applied only at
plot time; logged metrics are never smoothed.
"""

from __future__ import annotations

import math

import numpy as np

from .data import Dataset
from .models import ModelParams, atomic_write, forward

WIDTH = 640
HEIGHT = 420
PAD = 54

PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
           "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf"]


def moving_average(values, window: int) -> np.ndarray:
    """Trailing moving average; the first points average what is available."""
    if window < 1:
        raise ValueError("window must be >= 1")
    values = np.asarray(values, dtype=np.float64)
    out = np.empty_like(values)
    for i in range(values.size):
        lo = max(0, i - window + 1)
        out[i] = values[lo : i + 1].mean()
    return out


def _axes(x_lo, x_hi, y_lo, y_hi, title, xlabel, ylabel):
    parts = [
        f'<svg width="{WIDTH}" height="{HEIGHT}" xmlns="http://www.w3.org/2000/svg">',
        '<rect width="100%" height="100%" fill="white"/>',
        f'<text x="{WIDTH / 2}" y="22" font-family="sans-serif" font-size="15" '
        f'text-anchor="middle" font-weight="bold">{title}</text>',
        f'<line x1="{PAD}" y1="{HEIGHT - PAD}" x2="{WIDTH - PAD}" y2="{HEIGHT - PAD}" stroke="black"/>',
        f'<line x1="{PAD}" y1="{PAD}" x2="{PAD}" y2="{HEIGHT - PAD}" stroke="black"/>',
        f'<text x="{WIDTH / 2}" y="{HEIGHT - 12}" font-family="sans-serif" font-size="12" '
        f'text-anchor="middle">{xlabel}</text>',
        f'<text x="16" y="{HEIGHT / 2}" font-family="sans-serif" font-size="12" '
        f'text-anchor="middle" transform="rotate(-90 16 {HEIGHT / 2})">{ylabel}</text>',
    ]
    for i in range(5):
        frac = i / 4.0
        y = HEIGHT - PAD - frac * (HEIGHT - 2 * PAD)
        value = y_lo + frac * (y_hi - y_lo)
        parts.append(
            f'<line x1="{PAD}" y1="{y:.1f}" x2="{WIDTH - PAD}" y2="{y:.1f}" '
            'stroke="#dddddd" stroke-dasharray="4"/>'
        )
        parts.append(
            f'<text x="{PAD - 6}" y="{y + 4:.1f}" font-family="sans-serif" font-size="10" '
            f'text-anchor="end">{value:.3g}</text>'
        )
    for i in range(5):
        frac = i / 4.0
        x = PAD + frac * (WIDTH - 2 * PAD)
        value = x_lo + frac * (x_hi - x_lo)
        parts.append(
            f'<text x="{x:.1f}" y="{HEIGHT - PAD + 14}" font-family="sans-serif" '
            f'font-size="10" text-anchor="middle">{value:.4g}</text>'
        )
    return parts


def _scale(x, lo, hi, pix_lo, pix_hi):
    span = hi - lo if hi > lo else 1.0
    return pix_lo + (x - lo) / span * (pix_hi - pix_lo)


def _polyline(xs, ys, x_lo, x_hi, y_lo, y_hi, color, width, dash=""):
    points = []
    for x, y in zip(xs, ys):
        if math.isnan(y):
            continue
        px = _scale(x, x_lo, x_hi, PAD, WIDTH - PAD)
        py = _scale(y, y_lo, y_hi, HEIGHT - PAD, PAD)
        points.append(f"{px:.2f},{py:.2f}")
    if len(points) == 1:
        cx, cy = points[0].split(",")
        return f'<circle cx="{cx}" cy="{cy}" r="3.5" fill="{color}"/>'
    attrs = f' stroke-dasharray="{dash}"' if dash else ""
    return (f'<polyline points="{" ".join(points)}" fill="none" stroke="{color}" '
            f'stroke-width="{width}"{attrs}/>')


def line_chart(path, xs, series: dict[str, np.ndarray], title: str,
               xlabel: str, ylabel: str, smooth_window: int = 1) -> None:
    """Raw polylines with a smoothed overlay per labelled series."""
    xs = np.asarray(xs, dtype=np.float64)
    finite = [v for ys in series.values() for v in np.asarray(ys, dtype=np.float64)
              if not math.isnan(v)]
    y_lo = min(finite) if finite else 0.0
    y_hi = max(finite) if finite else 1.0
    if y_hi <= y_lo:
        y_hi = y_lo + 1.0
    x_lo, x_hi = float(xs.min()), float(xs.max())

    parts = _axes(x_lo, x_hi, y_lo, y_hi, title, xlabel, ylabel)
    for i, (label, ys) in enumerate(series.items()):
        ys = np.asarray(ys, dtype=np.float64)
        color = PALETTE[i % len(PALETTE)]
        parts.append(_polyline(xs, ys, x_lo, x_hi, y_lo, y_hi, color, 1.0, dash="2,3"))
        if smooth_window > 1:
            parts.append(_polyline(xs, moving_average(ys, smooth_window),
                                   x_lo, x_hi, y_lo, y_hi, color, 2.0))
        ly = 36 + 16 * i
        parts.append(f'<rect x="{WIDTH - 170}" y="{ly - 10}" width="12" height="12" fill="{color}"/>')
        parts.append(
            f'<text x="{WIDTH - 152}" y="{ly}" font-family="sans-serif" font-size="11">{label}</text>'
        )
    parts.append("</svg>")
    atomic_write(path, "\n".join(parts) + "\n")


def bar_chart(path, values, title: str, xlabel: str, ylabel: str) -> None:
    values = np.asarray(values, dtype=np.float64)
    y_hi = float(values.max()) if values.size else 1.0
    if y_hi <= 0:
        y_hi = 1.0
    parts = _axes(0, values.size, 0.0, y_hi, title, xlabel, ylabel)
    slot = (WIDTH - 2 * PAD) / values.size
    for i, v in enumerate(values):
        x = PAD + i * slot
        top = _scale(v, 0.0, y_hi, HEIGHT - PAD, PAD)
        parts.append(
            f'<rect x="{x + 0.1 * slot:.2f}" y="{top:.2f}" width="{0.8 * slot:.2f}" '
            f'height="{HEIGHT - PAD - top:.2f}" fill="{PALETTE[0]}"/>'
        )
    parts.append("</svg>")
    atomic_write(path, "\n".join(parts) + "\n")


def decision_boundary_chart(path, params: ModelParams, dataset: Dataset,
                            grid: int = 100, margin: float = 1.0) -> None:
    """Argmax regions over a 2-D bounding box plus the data points."""
    if dataset.features.shape[1] != 2:
        raise ValueError("decision boundaries are drawn for 2-D data only")
    x_lo, y_lo = dataset.features.min(axis=0) - margin
    x_hi, y_hi = dataset.features.max(axis=0) + margin
    gx = np.linspace(x_lo, x_hi, grid)
    gy = np.linspace(y_lo, y_hi, grid)
    mesh = np.array([[x, y] for y in gy for x in gx])
    regions = forward(params, mesh).argmax(axis=1).reshape(grid, grid)

    cell_w = (WIDTH - 2 * PAD) / grid
    cell_h = (HEIGHT - 2 * PAD) / grid
    parts = _axes(x_lo, x_hi, y_lo, y_hi, "decision regions", "x1", "x2")
    for gj in range(grid):
        for gi in range(grid):
            color = PALETTE[int(regions[gj, gi]) % len(PALETTE)]
            px = PAD + gi * cell_w
            py = HEIGHT - PAD - (gj + 1) * cell_h
            parts.append(
                f'<rect x="{px:.2f}" y="{py:.2f}" width="{cell_w + 0.5:.2f}" '
                f'height="{cell_h + 0.5:.2f}" fill="{color}" fill-opacity="0.25"/>'
            )
    for (x, y), label in zip(dataset.features, dataset.labels):
        px = _scale(x, x_lo, x_hi, PAD, WIDTH - PAD)
        py = _scale(y, y_lo, y_hi, HEIGHT - PAD, PAD)
        parts.append(
            f'<circle cx="{px:.2f}" cy="{py:.2f}" r="2.2" '
            f'fill="{PALETTE[int(label) % len(PALETTE)]}" stroke="black" stroke-width="0.4"/>'
        )
    parts.append("</svg>")
    atomic_write(path, "\n".join(parts) + "\n")


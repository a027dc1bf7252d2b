"""Dependency-free SVG rendering of score trajectories.

One polyline per method: epoch on x, mean best score across that
method's trajectory CSVs on y, with a fixed [0, 1] score axis.
"""

from __future__ import annotations

import os
import sys

import numpy as np

from .errors import ConfigError
from .experiment import _write, read_run_method, read_trajectory_csv

__all__ = ["emit_plot", "group_by_method"]

WIDTH, HEIGHT = 640, 420
MARGIN_LEFT, MARGIN_RIGHT, MARGIN_TOP, MARGIN_BOTTOM = 56, 150, 20, 44
PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]


def group_by_method(csv_paths) -> dict[str, list[str]]:
    """CSVs by the method their run's resolved config names, else by
    file stem."""
    groups: dict[str, list[str]] = {}
    for path in csv_paths:
        label = read_run_method(path) or os.path.splitext(os.path.basename(path))[0]
        groups.setdefault(label, []).append(path)
    return groups


def _mean_best_curve(curves) -> np.ndarray:
    """Mean best_score per epoch across trajectories, ignoring missing
    tail epochs of shorter (partial) runs."""
    length = max(len(c) for c in curves)
    stacked = np.full((len(curves), length), np.nan)
    for i, c in enumerate(curves):
        stacked[i, : len(c)] = c
    return np.nanmean(stacked, axis=0)


def _x(epoch: int, max_epoch: int) -> float:
    span = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    frac = epoch / max_epoch if max_epoch else 0.0
    return MARGIN_LEFT + frac * span


def _y(score: float) -> float:
    span = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM
    return MARGIN_TOP + (1.0 - score) * span


def emit_plot(csv_paths, output_path: str) -> str:
    """Write the comparison plot and return the SVG text."""
    csv_paths = list(csv_paths)
    if not csv_paths:
        raise ConfigError("no trajectory CSVs to plot")
    best = {}
    for path in csv_paths:
        best[path] = read_trajectory_csv(path)["best_score"]
        if not best[path]:
            # a seed that failed at epoch 0 leaves a header only
            print(f"note: {path}: trajectory CSV with no rows, not plotted", file=sys.stderr)
    plotted = [path for path in csv_paths if best[path]]
    if not plotted:
        raise ConfigError("no trajectory CSV with rows to plot")
    groups = group_by_method(plotted)
    curves = {
        method: _mean_best_curve([best[p] for p in paths])
        for method, paths in sorted(groups.items())
    }
    max_epoch = max(len(c) - 1 for c in curves.values())

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
    ]
    # axes
    x0, x1 = MARGIN_LEFT, WIDTH - MARGIN_RIGHT
    y0, y1 = HEIGHT - MARGIN_BOTTOM, MARGIN_TOP
    parts.append(
        f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" stroke="black"/>'
        f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="black"/>'
    )
    for tick in (0.0, 0.25, 0.5, 0.75, 1.0):
        ty = _y(tick)
        parts.append(
            f'<line x1="{x0 - 4}" y1="{ty:.1f}" x2="{x0}" y2="{ty:.1f}" stroke="black"/>'
            f'<text x="{x0 - 8}" y="{ty + 4:.1f}" font-size="11" text-anchor="end">{tick:g}</text>'
        )
    n_xticks = min(max_epoch, 10) or 1
    for k in range(n_xticks + 1):
        epoch = round(k * max_epoch / n_xticks)
        tx = _x(epoch, max_epoch)
        parts.append(
            f'<line x1="{tx:.1f}" y1="{y0}" x2="{tx:.1f}" y2="{y0 + 4}" stroke="black"/>'
            f'<text x="{tx:.1f}" y="{y0 + 16}" font-size="11" text-anchor="middle">{epoch}</text>'
        )
    parts.append(
        f'<text x="{(x0 + x1) / 2:.1f}" y="{HEIGHT - 8}" font-size="12" '
        f'text-anchor="middle">epoch</text>'
        f'<text x="14" y="{(y0 + y1) / 2:.1f}" font-size="12" text-anchor="middle" '
        f'transform="rotate(-90 14 {(y0 + y1) / 2:.1f})">mean best score</text>'
    )
    # one polyline + legend entry per method
    for i, (method, curve) in enumerate(curves.items()):
        color = PALETTE[i % len(PALETTE)]
        points = " ".join(
            f"{_x(e, max_epoch):.2f},{_y(float(s)):.2f}"
            for e, s in enumerate(curve)
            if np.isfinite(s)
        )
        parts.append(
            f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        ly = MARGIN_TOP + 14 + 18 * i
        parts.append(
            f'<line x1="{x1 + 10}" y1="{ly}" x2="{x1 + 34}" y2="{ly}" '
            f'stroke="{color}" stroke-width="1.5"/>'
            f'<text x="{x1 + 40}" y="{ly + 4}" font-size="11">{method}</text>'
        )
    parts.append("</svg>")
    _write(output_path, parts)
    return "\n".join(parts) + "\n"

"""Standalone SVG chart of dispersion against kick index, one line per run."""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .runner import ExperimentConfig, RunRecord, write_text_atomic

_CHART_W, _CHART_H = 880, 560
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 78, 24, 24, 58
_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _nice_ticks(hi: float) -> list[float]:
    """About six round ticks from 0 to ``hi``, which :func:`render_chart` keeps >= 1."""
    raw = hi / 5
    magnitude = 10.0 ** math.floor(math.log10(raw))
    step = 10.0 * magnitude
    for mult in (1.0, 2.0, 2.5, 5.0):
        if raw <= mult * magnitude:
            step = mult * magnitude
            break
    ticks = []
    value = 0.0
    while value <= hi * (1 + 1e-9):
        ticks.append(value)
        value += step
    return ticks


def _legend_label(config: ExperimentConfig) -> str:
    if config.experiment == "classical":
        return "classical ensemble"
    if config.experiment == "zeno":
        return "two-level readout"
    mode = config.measurement_mode
    if mode == "none":
        return "no measurement"
    period = config.measurement_period
    every = "every kick" if period == 1 else f"every {period} kicks"
    if mode == "all":
        return f"all states, {every}"
    if mode == "initial":
        return f"initial state, {every}"
    states = ",".join(str(m) for m in (config.subset or ()))
    return f"states {{{states}}}, {every}"


def render_chart(records: Sequence[RunRecord]) -> str:
    """Standalone SVG line chart: one polyline per record, dispersion vs j."""
    if not records:
        raise ValueError("no records to chart")
    x_max = max(float(rec.aggregate.j[-1]) for rec in records)
    y_max = max(float(np.max(rec.aggregate.dispersion)) for rec in records)
    x_max = max(x_max, 1.0)
    y_max = max(y_max, 1.0)
    plot_w = _CHART_W - _MARGIN_L - _MARGIN_R
    plot_h = _CHART_H - _MARGIN_T - _MARGIN_B

    def sx(x: float) -> float:
        return _MARGIN_L + plot_w * x / x_max

    def sy(y: float) -> float:
        return _MARGIN_T + plot_h * (1.0 - y / y_max)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_CHART_W}" '
        f'height="{_CHART_H}" viewBox="0 0 {_CHART_W} {_CHART_H}">',
        f'<rect width="{_CHART_W}" height="{_CHART_H}" fill="white"/>',
    ]
    axis_style = 'stroke="black" stroke-width="1"'
    text_style = 'font-family="sans-serif" font-size="13"'
    x0, y0 = sx(0.0), sy(0.0)
    parts.append(f'<line x1="{x0:.2f}" y1="{y0:.2f}" x2="{sx(x_max):.2f}" y2="{y0:.2f}" {axis_style}/>')
    parts.append(f'<line x1="{x0:.2f}" y1="{y0:.2f}" x2="{x0:.2f}" y2="{sy(y_max):.2f}" {axis_style}/>')
    for tick in _nice_ticks(x_max):
        tx = sx(tick)
        parts.append(f'<line x1="{tx:.2f}" y1="{y0:.2f}" x2="{tx:.2f}" y2="{y0 + 5:.2f}" {axis_style}/>')
        parts.append(
            f'<text x="{tx:.2f}" y="{y0 + 20:.2f}" text-anchor="middle" {text_style}>{tick:g}</text>'
        )
    for tick in _nice_ticks(y_max):
        ty = sy(tick)
        parts.append(f'<line x1="{x0 - 5:.2f}" y1="{ty:.2f}" x2="{x0:.2f}" y2="{ty:.2f}" {axis_style}/>')
        parts.append(
            f'<text x="{x0 - 8:.2f}" y="{ty + 4:.2f}" text-anchor="end" {text_style}>{tick:g}</text>'
        )
    parts.append(
        f'<text x="{_MARGIN_L + plot_w / 2:.2f}" y="{_CHART_H - 14:.2f}" '
        f'text-anchor="middle" {text_style}>kick index j</text>'
    )
    parts.append(
        f'<text x="18" y="{_MARGIN_T + plot_h / 2:.2f}" text-anchor="middle" '
        f'{text_style} transform="rotate(-90 18 {_MARGIN_T + plot_h / 2:.2f})">'
        "momentum dispersion</text>"
    )
    for i, rec in enumerate(records):
        color = _PALETTE[i % len(_PALETTE)]
        points = " ".join(
            f"{sx(float(xj)):.2f},{sy(float(yd)):.2f}"
            for xj, yd in zip(rec.aggregate.j, rec.aggregate.dispersion)
        )
        parts.append(f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        ly = _MARGIN_T + 18 + 18 * i
        lx = _MARGIN_L + 14
        parts.append(
            f'<line x1="{lx:.2f}" y1="{ly - 4:.2f}" x2="{lx + 26:.2f}" y2="{ly - 4:.2f}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{lx + 32:.2f}" y="{ly:.2f}" {text_style}>{_legend_label(rec.config)}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def emit_chart(records: Sequence[RunRecord], path: str) -> None:
    """Write the dispersion chart for one or more records as an SVG file."""
    write_text_atomic(path, render_chart(records))

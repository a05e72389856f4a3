"""Plain CSV and SVG emission for two-curve scene data. No plotting
dependency; the SVG is a fixed-size polyline chart."""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

__all__ = ["CURVE_HEADER", "write_curves_csv", "write_curves_svg"]

CURVE_HEADER = ("coord", "phi_Zt_f", "Zt_phi_f")

_WIDTH = 640
_HEIGHT = 400
_MARGIN = 48


def write_curves_csv(path, coords, lhs, rhs) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CURVE_HEADER)
        for c, a, b in zip(coords, lhs, rhs):
            writer.writerow([repr(float(c)), repr(float(a)), repr(float(b))])


def _scale(values, lo, hi, out_lo, out_hi):
    span = hi - lo
    if span == 0.0:
        span = 1.0
    return out_lo + (np.asarray(values) - lo) * (out_hi - out_lo) / span


def _polyline(xs, ys, color) -> str:
    pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(xs, ys))
    return f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{pts}" />'


def write_curves_svg(path, coords, lhs, rhs, title: str) -> None:
    coords = np.asarray(coords, dtype=float)
    lhs = np.asarray(lhs, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    x_lo, x_hi = float(coords.min()), float(coords.max())
    y_lo = float(min(lhs.min(), rhs.min(), 0.0))
    y_hi = float(max(lhs.max(), rhs.max()))
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    xs = _scale(coords, x_lo, x_hi, _MARGIN, _WIDTH - _MARGIN)
    ys_l = _scale(lhs, y_lo, y_hi, _HEIGHT - _MARGIN, _MARGIN)
    ys_r = _scale(rhs, y_lo, y_hi, _HEIGHT - _MARGIN, _MARGIN)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white" />',
        f'<line x1="{_MARGIN}" y1="{_HEIGHT - _MARGIN}" x2="{_WIDTH - _MARGIN}" '
        f'y2="{_HEIGHT - _MARGIN}" stroke="black" stroke-width="1" />',
        f'<line x1="{_MARGIN}" y1="{_MARGIN}" x2="{_MARGIN}" '
        f'y2="{_HEIGHT - _MARGIN}" stroke="black" stroke-width="1" />',
        _polyline(xs, ys_l, "#c02020"),
        _polyline(xs, ys_r, "#2040c0"),
        f'<text x="{_MARGIN}" y="24" font-family="monospace" font-size="13">{title}</text>',
        f'<text x="{_WIDTH - _MARGIN - 170}" y="{_MARGIN + 16}" font-family="monospace" '
        f'font-size="12" fill="#c02020">phi(Z(t)f)</text>',
        f'<text x="{_WIDTH - _MARGIN - 170}" y="{_MARGIN + 32}" font-family="monospace" '
        f'font-size="12" fill="#2040c0">Z(t)(phi f)</text>',
        f'<text x="{_MARGIN}" y="{_HEIGHT - _MARGIN + 28}" font-family="monospace" '
        f'font-size="11">[{x_lo:.4g}, {x_hi:.4g}]</text>',
        "</svg>",
    ]
    Path(path).write_text("\n".join(parts))

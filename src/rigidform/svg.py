"""Minimal static SVG plots (line charts and planar node paths).

Deliberately dependency-free: simulation outputs are small, and emitting the
handful of SVG elements directly keeps the artifact reproducible byte for
byte.  Not a general plotting layer -- just what the CLI needs.  Titles,
axis labels and series labels are escaped as XML text, so any scenario name
gives a well-formed file.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

PALETTE = (
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#9467bd",
    "#ff7f0e",
    "#8c564b",
    "#17becf",
    "#e377c2",
    "#7f7f7f",
    "#bcbd22",
    "#aec7e8",
)

_W, _H = 640, 420
_ML, _MR, _MT, _MB = 64, 20, 34, 46  # margins


def _escape(text: str) -> str:
    """``text`` as XML character data, as ``xml.sax.saxutils.escape`` gives
    it; that module is not imported, since it loads urllib.request, http and
    ssl with it, about 7 MB more resident memory."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _tick_values(lo: float, hi: float, count: int = 6) -> list[float]:
    if not math.isfinite(lo) or not math.isfinite(hi) or hi <= lo:
        return [lo]
    raw = (hi - lo) / max(count - 1, 1)
    mag = 10.0 ** math.floor(math.log10(raw))
    step = min(s for s in (1.0, 2.0, 2.5, 5.0, 10.0) if s * mag >= raw) * mag
    first = math.ceil(lo / step) * step
    out = []
    v = first
    while v <= hi + 1e-12 * step:
        out.append(0.0 if abs(v) < 1e-12 * step else v)
        v += step
    return out or [lo]


class _Canvas:
    def __init__(self, title: str):
        self.parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
            f'viewBox="0 0 {_W} {_H}" font-family="sans-serif" font-size="12">',
            f'<rect width="{_W}" height="{_H}" fill="white"/>',
            f'<text x="{_W / 2}" y="20" text-anchor="middle" font-size="14">{_escape(title)}</text>',
        ]

    def add(self, element: str):
        self.parts.append(element)

    def write(self, path: str | Path):
        self.parts.append("</svg>")
        Path(path).write_text("\n".join(self.parts) + "\n")


def _poly(xs, ys, color: str, width: float = 1.5) -> str:
    pts = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in zip(xs, ys))
    return f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="{width}"/>'


def line_chart(
    path: str | Path,
    x: np.ndarray,
    series: list[tuple[str, np.ndarray]],
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
    log_y: bool = False,
):
    """Write a labeled multi-series line chart.

    With ``log_y`` the y axis is log10 with decade ticks; non-positive
    values are dropped from the plotted series.
    """
    x = np.asarray(x, dtype=float)
    cooked = []
    for label, y in series:
        y = np.asarray(y, dtype=float)
        if log_y:
            keep = y > 0.0
            cooked.append((label, x[keep], np.log10(y[keep])))
        else:
            cooked.append((label, x, y))
    xs_all = np.concatenate([c[1] for c in cooked if len(c[1])] or [np.zeros(1)])
    ys_all = np.concatenate([c[2] for c in cooked if len(c[2])] or [np.zeros(1)])
    x0, x1 = float(xs_all.min()), float(xs_all.max())
    y0, y1 = float(ys_all.min()), float(ys_all.max())
    if x1 <= x0:
        x1 = x0 + 1.0
    if y1 <= y0:
        y0, y1 = y0 - 1.0, y1 + 1.0
    pad = 0.05 * (y1 - y0)
    y0, y1 = y0 - pad, y1 + pad

    def sx(v):
        return _ML + (v - x0) / (x1 - x0) * (_W - _ML - _MR)

    def sy(v):
        return _H - _MB - (v - y0) / (y1 - y0) * (_H - _MT - _MB)

    svg = _Canvas(title)
    svg.add(
        f'<rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" height="{_H - _MT - _MB}" '
        f'fill="none" stroke="#444"/>'
    )
    for v in _tick_values(x0, x1):
        px = sx(v)
        svg.add(f'<line x1="{_fmt(px)}" y1="{_H - _MB}" x2="{_fmt(px)}" y2="{_H - _MB + 4}" stroke="#444"/>')
        svg.add(f'<text x="{_fmt(px)}" y="{_H - _MB + 16}" text-anchor="middle">{_fmt(v)}</text>')
    if log_y:
        ticks = range(math.ceil(y0), math.floor(y1) + 1)
        labels = [f"1e{k}" for k in ticks]
    else:
        ticks = _tick_values(y0, y1)
        labels = [_fmt(v) for v in ticks]
    for v, lab in zip(ticks, labels):
        py = sy(v)
        svg.add(f'<line x1="{_ML - 4}" y1="{_fmt(py)}" x2="{_ML}" y2="{_fmt(py)}" stroke="#444"/>')
        svg.add(f'<text x="{_ML - 7}" y="{_fmt(py + 4)}" text-anchor="end">{lab}</text>')
    for k, (label, cx, cy) in enumerate(cooked):
        if len(cx) == 0:
            continue
        color = PALETTE[k % len(PALETTE)]
        svg.add(_poly([sx(v) for v in cx], [sy(v) for v in cy], color))
        ly = _MT + 14 + 14 * k
        svg.add(f'<line x1="{_W - _MR - 110}" y1="{ly - 4}" x2="{_W - _MR - 90}" y2="{ly - 4}" stroke="{color}" stroke-width="2"/>')
        svg.add(f'<text x="{_W - _MR - 85}" y="{ly}">{_escape(label)}</text>')
    if xlabel:
        svg.add(f'<text x="{(_ML + _W - _MR) / 2}" y="{_H - 10}" text-anchor="middle">{_escape(xlabel)}</text>')
    if ylabel:
        svg.add(
            f'<text x="16" y="{(_MT + _H - _MB) / 2}" text-anchor="middle" '
            f'transform="rotate(-90 16 {(_MT + _H - _MB) / 2})">{_escape(ylabel)}</text>'
        )
    svg.write(path)


def plane_paths(
    path: str | Path,
    positions: np.ndarray,
    target: np.ndarray | None = None,
    title: str = "",
):
    """Write node trajectories in the plane (equal-aspect).

    ``positions`` is (samples, nodes, 2); start points are open circles, end
    points filled, and target positions (if given) are drawn as crosses.
    """
    positions = np.asarray(positions, dtype=float)
    if positions.ndim != 3 or positions.shape[2] != 2:
        raise ValueError("plane_paths needs positions shaped (samples, nodes, 2)")
    pts = positions.reshape(-1, 2)
    if target is not None:
        pts = np.vstack([pts, np.asarray(target, dtype=float)])
    x0, y0 = pts.min(axis=0)
    x1, y1 = pts.max(axis=0)
    span = max(x1 - x0, y1 - y0, 1e-9)
    cx, cy = (x0 + x1) / 2, (y0 + y1) / 2
    half = 0.55 * span
    box = min(_W - _ML - _MR, _H - _MT - _MB)

    def sx(v):
        return _ML + (v - (cx - half)) / (2 * half) * box

    def sy(v):
        return _MT + box - (v - (cy - half)) / (2 * half) * box

    svg = _Canvas(title)
    svg.add(f'<rect x="{_ML}" y="{_MT}" width="{box}" height="{box}" fill="none" stroke="#444"/>')
    n = positions.shape[1]
    for i in range(n):
        color = PALETTE[i % len(PALETTE)]
        xs = [sx(v) for v in positions[:, i, 0]]
        ys = [sy(v) for v in positions[:, i, 1]]
        svg.add(_poly(xs, ys, color, width=1.2))
        svg.add(f'<circle cx="{_fmt(xs[0])}" cy="{_fmt(ys[0])}" r="3.5" fill="white" stroke="{color}"/>')
        svg.add(f'<circle cx="{_fmt(xs[-1])}" cy="{_fmt(ys[-1])}" r="3.5" fill="{color}"/>')
        svg.add(f'<text x="{_fmt(xs[-1] + 6)}" y="{_fmt(ys[-1] - 6)}" fill="{color}">{i + 1}</text>')
    if target is not None:
        for i, (tx, ty) in enumerate(np.asarray(target, dtype=float)):
            px, py = sx(tx), sy(ty)
            svg.add(f'<path d="M {_fmt(px - 4)} {_fmt(py - 4)} L {_fmt(px + 4)} {_fmt(py + 4)} '
                    f'M {_fmt(px - 4)} {_fmt(py + 4)} L {_fmt(px + 4)} {_fmt(py - 4)}" stroke="#111" stroke-width="1.5"/>')
    svg.write(path)

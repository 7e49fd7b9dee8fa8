"""Deterministic standalone SVG line charts of result rows.

Hand-written SVG 1.1 so identical inputs give identical bytes.  One series
per (system, split, depth-mode) configuration; y is the median over seeds of
the chosen metric, x is the SNR in dB.
"""

from __future__ import annotations

import numpy as np

from .errors import ParameterError

_PLOTTABLE = (
    "mse", "nmse", "sw2", "mmd2", "sigma_eps2", "sigma_n2", "sigma_tot2",
    "gamma_mean", "t_b_resolved",
)
_PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd",
    "#ff7f0e", "#8c564b", "#e377c2", "#7f7f7f",
)


def _series_key(row):
    return (row.system, row.t_f1, row.t_f2, row.t_b_mode)


def _series_label(key):
    system, t_f1, t_f2, t_b_mode = key
    return f"{system} ({t_f1},{t_f2}) t_b={t_b_mode}"


def _axis_range(values):
    """(min, max) of values; a single value is widened by 1, or by 0.1% of it
    where that is more, so that a float too large to absorb a 1 gets a span."""
    lo, hi = min(values), max(values)
    delta = 0.0 if hi > lo else max(1.0, abs(lo) * 1e-3)
    return lo - delta, hi + delta


def emit_svg_plot(rows, metric: str) -> str:
    """Render rows' `metric` as a 640x420 SVG line chart; returns the document text."""
    if metric not in _PLOTTABLE:
        raise ParameterError(
            f"unknown metric {metric!r}; expected one of {_PLOTTABLE}"
        )
    rows = list(rows)
    if not rows:
        raise ParameterError("no rows to plot")

    series: dict[tuple, dict[float, list[float]]] = {}
    for row in rows:
        bucket = series.setdefault(_series_key(row), {})
        bucket.setdefault(float(row.snr_db), []).append(float(getattr(row, metric)))

    points = {
        key: sorted((x, float(np.median(ys))) for x, ys in buckets.items())
        for key, buckets in sorted(series.items())
    }

    xs = [x for pts in points.values() for x, _ in pts]
    ys = [y for pts in points.values() for _, y in pts]
    x_lo, x_hi = _axis_range(xs)
    y_lo, y_hi = _axis_range(ys)
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    w, h = 640, 420
    ml, mr, mt, mb = 70, 20, 30, 45

    def sx(x):
        return ml + (x - x_lo) / (x_hi - x_lo) * (w - ml - mr)

    def sy(y):
        return h - mb - (y - y_lo) / (y_hi - y_lo) * (h - mt - mb)

    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{w}" height="{h}" viewBox="0 0 {w} {h}">',
        f'<rect x="0" y="0" width="{w}" height="{h}" fill="white"/>',
        f'<line x1="{ml}" y1="{h - mb}" x2="{w - mr}" y2="{h - mb}" stroke="black"/>',
        f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{h - mb}" stroke="black"/>',
    ]
    out.append(
        f'<text x="{w / 2:.1f}" y="18" font-family="sans-serif" font-size="13" '
        f'text-anchor="middle">{metric} vs snr_db</text>'
    )
    for x in sorted(set(xs)):
        px = sx(x)
        out.append(f'<line x1="{px:.2f}" y1="{h - mb}" x2="{px:.2f}" y2="{h - mb + 4}" stroke="black"/>')
        out.append(
            f'<text x="{px:.2f}" y="{h - mb + 16}" font-family="sans-serif" '
            f'font-size="10" text-anchor="middle">{x:g}</text>'
        )
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        y = y_lo + frac * (y_hi - y_lo)
        py = sy(y)
        out.append(f'<line x1="{ml - 4}" y1="{py:.2f}" x2="{ml}" y2="{py:.2f}" stroke="black"/>')
        out.append(
            f'<text x="{ml - 7}" y="{py + 3:.2f}" font-family="sans-serif" '
            f'font-size="10" text-anchor="end">{y:.4g}</text>'
        )
    out.append(
        f'<text x="{(ml + w - mr) / 2:.1f}" y="{h - 8}" font-family="sans-serif" '
        f'font-size="11" text-anchor="middle">snr_db</text>'
    )
    out.append(
        f'<text x="16" y="{(mt + h - mb) / 2:.1f}" font-family="sans-serif" font-size="11" '
        f'text-anchor="middle" transform="rotate(-90 16 {(mt + h - mb) / 2:.1f})">{metric}</text>'
    )

    for i, (key, pts) in enumerate(points.items()):
        color = _PALETTE[i % len(_PALETTE)]
        path = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in pts)
        out.append(f'<polyline points="{path}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        for x, y in pts:
            out.append(f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="3" fill="{color}"/>')
        ly = mt + 14 * (i + 1)
        out.append(f'<line x1="{w - mr - 150}" y1="{ly}" x2="{w - mr - 132}" y2="{ly}" '
                   f'stroke="{color}" stroke-width="2"/>')
        out.append(
            f'<text x="{w - mr - 128}" y="{ly + 3}" font-family="sans-serif" '
            f'font-size="10">{_series_label(key)}</text>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"

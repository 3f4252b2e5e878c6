"""Self-contained deterministic SVG log-log plots.

Hand-rolled rather than delegated to a plotting library so that the emitted
figures are dependency-free, byte-stable across reruns, and diffable in
tests.  Only what the convergence and adaptivity figures need is provided:
log-log polylines with markers, decade grid lines, a legend, and reference
slope triangles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from xml.sax.saxutils import escape

__all__ = ["Curve", "loglog_svg"]

#: Line colors, cycled over curves in order.
PALETTE = (
    "#1f6fb2",
    "#d1495b",
    "#2e8b57",
    "#8c5aa8",
    "#c98a26",
    "#3b3b3b",
)

_WIDTH = 720
_HEIGHT = 540
_MARGIN_L = 64.0
_MARGIN_R = 16.0
_MARGIN_T = 34.0
_MARGIN_B = 46.0


@dataclass(frozen=True)
class Curve:
    """One polyline of positive, finite (x, y) samples."""

    label: str
    x: tuple
    y: tuple
    dashed: bool

    def __post_init__(self):
        if len(self.x) != len(self.y) or len(self.x) == 0:
            raise ValueError("curve needs matching non-empty x and y")
        if not all(0 < v < math.inf for v in (*self.x, *self.y)):
            raise ValueError("log-log curves need positive finite data")


def _fmt(value: float) -> str:
    return f"{value:.2f}"


def _decades(lo: float, hi: float) -> list[int]:
    return list(range(math.ceil(lo - 1e-9), math.floor(hi + 1e-9) + 1))


def loglog_svg(curves, *, title: str, xlabel: str, ylabel: str, slope_guides: tuple) -> str:
    """Render curves into an SVG document string.

    slope_guides draws, for each slope s, a reference triangle whose legs
    are one decade wide and s decades tall, anchored in the lower right of
    the data region.
    """
    curves = list(curves)
    if not curves:
        raise ValueError("need at least one curve")

    lx = [math.log10(v) for c in curves for v in c.x]
    ly = [math.log10(v) for c in curves for v in c.y]
    x_lo, x_hi = min(lx), max(lx)
    y_lo, y_hi = min(ly), max(ly)
    x_pad = 0.06 * max(x_hi - x_lo, 0.5)
    y_pad = 0.06 * max(y_hi - y_lo, 0.5)
    x_lo, x_hi = x_lo - x_pad, x_hi + x_pad
    y_lo, y_hi = y_lo - y_pad, y_hi + y_pad

    width, height = _WIDTH, _HEIGHT
    plot_w = width - _MARGIN_L - _MARGIN_R
    plot_h = height - _MARGIN_T - _MARGIN_B

    def px(log_x: float) -> float:
        return _MARGIN_L + (log_x - x_lo) / (x_hi - x_lo) * plot_w

    def py(log_y: float) -> float:
        return _MARGIN_T + (y_hi - log_y) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="#ffffff"/>',
    ]
    text = (
        '<text x="{x}" y="{y}" font-family="monospace" font-size="{s}" '
        'fill="#222222"{extra}>{body}</text>'
    )

    # decade grid
    for ex in _decades(x_lo, x_hi):
        gx = _fmt(px(ex))
        parts.append(
            f'<line x1="{gx}" y1="{_fmt(_MARGIN_T)}" x2="{gx}" '
            f'y2="{_fmt(_MARGIN_T + plot_h)}" stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            text.format(x=gx, y=_fmt(height - _MARGIN_B + 18), s=12,
                        extra=' text-anchor="middle"', body=f"1e{ex}")
        )
    for ex in _decades(y_lo, y_hi):
        gy = _fmt(py(ex))
        parts.append(
            f'<line x1="{_fmt(_MARGIN_L)}" y1="{gy}" x2="{_fmt(_MARGIN_L + plot_w)}" '
            f'y2="{gy}" stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            text.format(x=_fmt(_MARGIN_L - 6), y=_fmt(py(ex) + 4), s=12,
                        extra=' text-anchor="end"', body=f"1e{ex}")
        )

    # frame and axis labels
    parts.append(
        f'<rect x="{_fmt(_MARGIN_L)}" y="{_fmt(_MARGIN_T)}" width="{_fmt(plot_w)}" '
        f'height="{_fmt(plot_h)}" fill="none" stroke="#444444" stroke-width="1"/>'
    )
    if title:
        parts.append(
            text.format(x=_fmt(width / 2), y="20", s=14,
                        extra=' text-anchor="middle"', body=escape(title))
        )
    parts.append(
        text.format(x=_fmt(_MARGIN_L + plot_w / 2), y=_fmt(height - 8), s=13,
                    extra=' text-anchor="middle"', body=escape(xlabel))
    )
    parts.append(
        text.format(
            x="16", y=_fmt(_MARGIN_T + plot_h / 2), s=13,
            extra=f' text-anchor="middle" transform="rotate(-90 16 {_fmt(_MARGIN_T + plot_h / 2)})"',
            body=escape(ylabel),
        )
    )

    # slope reference triangles
    tri_x1 = x_hi - 0.08 * (x_hi - x_lo)
    tri_x0 = tri_x1 - min(1.0, 0.3 * (x_hi - x_lo))
    tri_base = y_lo + 0.10 * (y_hi - y_lo)
    for slope in slope_guides:
        y0 = tri_base
        y1 = tri_base + slope * (tri_x1 - tri_x0)
        p0 = (px(tri_x0), py(y0))
        p1 = (px(tri_x1), py(y0))
        p2 = (px(tri_x1), py(y1))
        parts.append(
            f'<path d="M {_fmt(p0[0])} {_fmt(p0[1])} L {_fmt(p1[0])} {_fmt(p1[1])} '
            f'L {_fmt(p2[0])} {_fmt(p2[1])} Z" fill="none" stroke="#888888" '
            f'stroke-width="1"/>'
        )
        parts.append(
            text.format(x=_fmt(p1[0] + 4), y=_fmt((p1[1] + p2[1]) / 2 + 4), s=11,
                        extra="", body=f"{slope:g}")
        )

    # curves and legend
    legend_y = _MARGIN_T + 14
    for i, curve in enumerate(curves):
        color = PALETTE[i % len(PALETTE)]
        pts = " ".join(
            f"{_fmt(px(math.log10(xv)))},{_fmt(py(math.log10(yv)))}"
            for xv, yv in zip(curve.x, curve.y)
        )
        dash = ' stroke-dasharray="6 4"' if curve.dashed else ""
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" '
            f'stroke-width="1.8"{dash}/>'
        )
        for xv, yv in zip(curve.x, curve.y):
            parts.append(
                f'<circle cx="{_fmt(px(math.log10(xv)))}" '
                f'cy="{_fmt(py(math.log10(yv)))}" r="3" fill="{color}"/>'
            )
        lx0 = _MARGIN_L + plot_w - 170
        parts.append(
            f'<line x1="{_fmt(lx0)}" y1="{_fmt(legend_y - 4)}" x2="{_fmt(lx0 + 26)}" '
            f'y2="{_fmt(legend_y - 4)}" stroke="{color}" stroke-width="1.8"{dash}/>'
        )
        parts.append(
            text.format(x=_fmt(lx0 + 32), y=_fmt(legend_y), s=12, extra="",
                        body=escape(curve.label))
        )
        legend_y += 16

    parts.append("</svg>")
    return "\n".join(parts)

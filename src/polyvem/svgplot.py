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
#: The plot region: its left and top edges, width and height.
_FRAME = (64.0, 34.0, 640.0, 460.0)


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


def _element(tag: str, body, **attrs) -> str:
    """One SVG element, its attributes in call order with ``_`` in a name
    written ``-``.  A value is written as given but a float, which gets two
    decimals; a tuple (template, *values) is its template filled with its
    values so written.  body is the element's text (escaped), None for an
    empty element, or a list of written elements, one a line."""
    def written(value):
        template, *values = value if isinstance(value, tuple) else ("{}", value)
        return template.format(*(f"{v:.2f}" if isinstance(v, float) else v for v in values))

    head = tag + "".join(f' {name.replace("_", "-")}="{written(value)}"'
                         for name, value in attrs.items())
    if body is None:
        return f"<{head}/>"
    inner = "\n".join(["", *body, ""]) if isinstance(body, list) else escape(body)
    return f"<{head}>{inner}</{tag}>"


def _text(body: str, x, y, size: int, **attrs) -> str:
    return _element("text", body, x=x, y=y, font_family="monospace", font_size=size,
                    fill="#222222", **attrs)


def _decades(lo: float, hi: float) -> list[int]:
    return list(range(math.ceil(lo - 1e-9), math.floor(hi + 1e-9) + 1))


def loglog_svg(curves, *, title: str, xlabel: str, ylabel: str, slope_guides: tuple) -> str:
    """Render curves into an SVG document string.

    slope_guides draws, for each slope s, a reference triangle in the lower
    right of the data region: its base is min(1, 0.3 x the plotted x range)
    decades wide and its height s times its base.
    """
    curves = list(curves)
    if not curves:
        raise ValueError("need at least one curve")

    def padded(logs):  # an axis's data range in decades, 6% (at least 0.03) wider each side
        pad = 0.06 * max(max(logs) - min(logs), 0.5)
        return min(logs) - pad, max(logs) + pad

    x_lo, x_hi = padded([math.log10(v) for c in curves for v in c.x])
    y_lo, y_hi = padded([math.log10(v) for c in curves for v in c.y])
    left, top, plot_w, plot_h = _FRAME
    right, bottom = left + plot_w, top + plot_h

    def px(log_x: float) -> float:
        return left + (log_x - x_lo) / (x_hi - x_lo) * plot_w

    def py(log_y: float) -> float:
        return top + (y_hi - log_y) / (y_hi - y_lo) * plot_h

    parts = [_element("rect", None, width=_WIDTH, height=_HEIGHT, fill="#ffffff")]

    # decade grid
    grid = {"stroke": "#dddddd", "stroke_width": 1}
    for ex in _decades(x_lo, x_hi):
        parts.append(_element("line", None, x1=px(ex), y1=top, x2=px(ex), y2=bottom, **grid))
        parts.append(_text(f"1e{ex}", px(ex), bottom + 18, 12, text_anchor="middle"))
    for ex in _decades(y_lo, y_hi):
        parts.append(_element("line", None, x1=left, y1=py(ex), x2=right, y2=py(ex), **grid))
        parts.append(_text(f"1e{ex}", left - 6, py(ex) + 4, 12, text_anchor="end"))

    # frame and axis labels
    parts.append(_element("rect", None, x=left, y=top, width=plot_w, height=plot_h, fill="none",
                          stroke="#444444", stroke_width=1))
    if title:
        parts.append(_text(title, _WIDTH / 2, 20, 14, text_anchor="middle"))
    parts.append(_text(xlabel, left + plot_w / 2, _HEIGHT - 8.0, 13, text_anchor="middle"))
    mid_y = top + plot_h / 2
    parts.append(_text(ylabel, 16, mid_y, 13, text_anchor="middle",
                       transform=("rotate(-90 16 {})", mid_y)))

    # slope reference triangles
    tri_x1 = x_hi - 0.08 * (x_hi - x_lo)
    tri_x0 = tri_x1 - min(1.0, 0.3 * (x_hi - x_lo))
    tri_base = y_lo + 0.10 * (y_hi - y_lo)
    for slope in slope_guides:
        x0, x1 = px(tri_x0), px(tri_x1)
        y0, y1 = py(tri_base), py(tri_base + slope * (tri_x1 - tri_x0))
        parts.append(_element("path", None, d=("M {} {} L {} {} L {} {} Z", x0, y0, x1, y0, x1, y1),
                              fill="none", stroke="#888888", stroke_width=1))
        parts.append(_text(f"{slope:g}", x1 + 4, (y0 + y1) / 2 + 4, 11))

    # curves and legend; a legend line takes its curve's stroke
    for i, curve in enumerate(curves):
        dash = {"stroke_dasharray": "6 4"} if curve.dashed else {}
        stroke = {"stroke": PALETTE[i % len(PALETTE)], "stroke_width": "1.8", **dash}
        points = [(px(math.log10(xv)), py(math.log10(yv))) for xv, yv in zip(curve.x, curve.y)]
        parts.append(_element("polyline", None, points=(" ".join(["{},{}"] * len(points)),
                                                         *sum(points, ())), fill="none", **stroke))
        parts.extend(_element("circle", None, cx=cx, cy=cy, r=3, fill=stroke["stroke"])
                     for cx, cy in points)
        legend_x, legend_y = right - 170, top + 14 + 16 * i
        parts.append(_element("line", None, x1=legend_x, y1=legend_y - 4, x2=legend_x + 26,
                              y2=legend_y - 4, **stroke))
        parts.append(_text(curve.label, legend_x + 32, legend_y, 12))

    return _element("svg", parts, xmlns="http://www.w3.org/2000/svg", width=_WIDTH, height=_HEIGHT,
                    viewBox=f"0 0 {_WIDTH} {_HEIGHT}")

"""Golden log-log figures: ``svgplot.loglog_svg`` output for four synthetic
figures that reach every branch of the writer, kept byte for byte in
``figures/`` with the commit they were recorded at.  ``test_svgplot``
renders the same figures and compares them with the record.

Re-record after a change that alters the plots on purpose, and say so with
the change:

    PYTHONPATH=src python tests/figures.py
"""

from pathlib import Path

from ladders import commit_label
from polyvem.svgplot import Curve, loglog_svg

RECORD = Path(__file__).with_name("figures")
H = (0.5, 0.25, 0.125, 0.0625)


def _ladder(label, order, scale, dashed):
    return Curve(label, H, tuple(scale * h**order for h in H), dashed=dashed)


FIGURES = {
    # a solid and a dashed curve, a title and two slope guides
    "two_curves": (
        [_ladder("E0h", 2, 0.3, dashed=False), _ladder("E1h", 1, 2.0, dashed=True)],
        {"title": "k = 1 on concave meshes", "xlabel": "h", "ylabel": "error",
         "slope_guides": (1, 2)},
    ),
    # one curve, an empty title (no title element) and no guides
    "untitled": (
        [_ladder("E0h", 3, 0.05, dashed=False)],
        {"title": "", "xlabel": "h", "ylabel": "error", "slope_guides": ()},
    ),
    # 8 curves cycle the palette; markup characters in the labels and title;
    # x spans 5 decades and y 14, so each guide's base is one full decade (elsewhere
    # it is 0.3 of the x range)
    "palette_cycle": (
        [Curve(f"c{i} <{i}> & {i} > 0", (1e-3, 1e-1, 1e2),
               (10.0 ** (3 - i), 10.0 ** (-1 - i), 10.0 ** (-4 - i)), dashed=i % 2 == 1)
         for i in range(8)],
        {"title": "R&D <all> > none", "xlabel": "dofs & h", "ylabel": "E < 1",
         "slope_guides": (1, 2, 3, 4)},
    ),
    # one one-point curve: neither axis range holds a decade, so no grid line
    "no_decade": (
        [Curve("single", (2.0,), (3.0,), dashed=False)],
        {"title": "one point", "xlabel": "x", "ylabel": "y", "slope_guides": (0.5,)},
    ),
}


def render(name: str) -> str:
    curves, labels = FIGURES[name]
    return loglog_svg(curves, **labels)


def main():
    RECORD.mkdir(exist_ok=True)
    for name in FIGURES:
        (RECORD / f"{name}.svg").write_text(render(name), encoding="utf-8")
    (RECORD / "recorded.txt").write_text(
        f"recorded at {commit_label()} by tests/figures.py\n", encoding="utf-8")
    print(f"wrote {len(FIGURES)} figures to {RECORD}")


if __name__ == "__main__":
    main()

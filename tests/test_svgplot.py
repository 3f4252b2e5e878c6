"""The log-log plot takes only samples a log axis can show, writes
well-formed XML whatever its text holds, and writes the recorded figures
(see ``figures``) byte for byte."""

import math
from xml.dom import minidom

import pytest

from figures import FIGURES, RECORD, render
from polyvem.svgplot import Curve, loglog_svg


@pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1e-3])
def test_curve_rejects_what_a_log_axis_cannot_show(bad):
    for x, y in (((0.5, 0.25), (bad, 1e-3)), ((bad, 0.25), (1e-2, 1e-3))):
        with pytest.raises(ValueError, match="^log-log curves need positive finite data$"):
            Curve("x", x, y, dashed=False)


@pytest.mark.parametrize("x, y", [((0.5, 0.25), (1e-3,)), ((), ())], ids=["mismatched", "empty"])
def test_curve_needs_matching_non_empty_samples(x, y):
    with pytest.raises(ValueError, match="^curve needs matching non-empty x and y$"):
        Curve("x", x, y, dashed=False)


def test_plot_needs_a_curve():
    with pytest.raises(ValueError, match="^need at least one curve$"):
        loglog_svg([], title="t", xlabel="h", ylabel="e", slope_guides=())


def test_markup_characters_in_text_are_escaped():
    curve = Curve("E0h <R&D>", (0.5, 0.25), (1e-2, 1e-3), dashed=False)
    svg = loglog_svg([curve], title="R&D on <concave> meshes", xlabel="h & k", ylabel="a<b",
                     slope_guides=())
    texts = [node.firstChild.data for node in minidom.parseString(svg).getElementsByTagName("text")]
    for body in ("E0h <R&D>", "R&D on <concave> meshes", "h & k", "a<b"):
        assert body in texts


@pytest.mark.parametrize("name", FIGURES)
def test_figures_match_the_record(name):
    assert render(name) == (RECORD / f"{name}.svg").read_text(encoding="utf-8")

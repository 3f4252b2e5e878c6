"""The log-log plot takes only samples a log axis can show, and writes
well-formed XML whatever its text holds."""

import math
from xml.dom import minidom

import pytest

from polyvem.svgplot import Curve, loglog_svg


@pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1e-3])
def test_curve_rejects_what_a_log_axis_cannot_show(bad):
    for x, y in (((0.5, 0.25), (bad, 1e-3)), ((bad, 0.25), (1e-2, 1e-3))):
        with pytest.raises(ValueError, match="^log-log curves need positive finite data$"):
            Curve("x", x, y, dashed=False)


def test_markup_characters_in_text_are_escaped():
    curve = Curve("E0h <R&D>", (0.5, 0.25), (1e-2, 1e-3), dashed=False)
    svg = loglog_svg([curve], title="R&D on <concave> meshes", xlabel="h & k", ylabel="a<b",
                     slope_guides=())
    texts = [node.firstChild.data for node in minidom.parseString(svg).getElementsByTagName("text")]
    for body in ("E0h <R&D>", "R&D on <concave> meshes", "h & k", "a<b"):
        assert body in texts

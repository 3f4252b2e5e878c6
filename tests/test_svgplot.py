"""The log-log plot takes only samples a log axis can show."""

import math

import pytest

from polyvem.svgplot import Curve


@pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1e-3])
def test_curve_rejects_what_a_log_axis_cannot_show(bad):
    for x, y in (((0.5, 0.25), (bad, 1e-3)), ((bad, 0.25), (1e-2, 1e-3))):
        with pytest.raises(ValueError, match="^log-log curves need positive finite data$"):
            Curve("x", x, y)

"""The criteria ladders' errors against their record (see ``ladders``): a
change that moves E0h or E1h beyond rounding fails here, naming the ladder
and the level.  The sweeps come from ``sweep_cache``, so no solve is added
to a run that checks the criteria."""

import pytest

from ladders import LADDERS, PROTOCOL, TOLERANCE, read_record, shifts


@pytest.mark.slow
@pytest.mark.parametrize("ladder", LADDERS, ids="{0[0]}-{0[1]}-k{0[2]}".format)
def test_errors_match_the_record(sweep_cache, ladder):
    record = sweep_cache(*ladder, **PROTOCOL)
    for name, shift in zip(("E0h", "E1h"), shifts(record, read_record()[ladder])):
        beyond = [f"level {level}: {s:.2e}" for level, s in enumerate(shift) if not s <= TOLERANCE]
        assert beyond == [], f"{ladder} {name} shifts beyond {TOLERANCE:g}: {', '.join(beyond)}"

"""The criteria's errors against their records (see ``ladders``): a change
that moves E0h or E1h beyond rounding fails here, naming the ladder and the
level, or the study history and the cycle.  The sweeps come from
``sweep_cache`` and the adaptive study from ``adaptive_study``, so no solve
is added to a run that checks the criteria."""

import pytest

from ladders import (HISTORIES, LADDERS, PROTOCOL, TOLERANCE, read_record, read_study_record,
                     shifts, study_shifts)


@pytest.mark.slow
@pytest.mark.parametrize("ladder", LADDERS, ids="{0[0]}-{0[1]}-k{0[2]}".format)
def test_errors_match_the_record(sweep_cache, ladder):
    record = sweep_cache(*ladder, **PROTOCOL)
    for name, shift in zip(("E0h", "E1h"), shifts(record, read_record()[ladder])):
        beyond = [f"level {level}: {s:.2e}" for level, s in enumerate(shift) if not s <= TOLERANCE]
        assert beyond == [], f"{ladder} {name} shifts beyond {TOLERANCE:g}: {', '.join(beyond)}"


@pytest.mark.parametrize("history", HISTORIES)
def test_adaptive_study_matches_the_record(adaptive_study, history):
    study, recorded = adaptive_study[0], read_study_record()
    dofs = getattr(study, history).active_dofs
    assert dofs.tolist() == recorded[history][0].tolist(), f"{history} active dofs moved"
    for name, shift in zip(("E0h", "E1h"), study_shifts(study, recorded)[history]):
        beyond = [f"cycle {cycle}: {s:.2e}" for cycle, s in enumerate(shift) if not s <= TOLERANCE]
        assert beyond == [], f"{history} {name} shifts beyond {TOLERANCE:g}: {', '.join(beyond)}"

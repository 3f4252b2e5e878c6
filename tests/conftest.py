"""Shared fixtures and the acceptance-suite report.

The full-protocol convergence sweeps (tau = 1e-3, four levels) are by far
the most expensive computations in the suite and several test modules
assert against the same ones, so they are computed once per session and
cached by their parameters.
"""

import re

import pytest

from ladders import PROTOCOL, RECORD, read_record, shifts
from polyvem.analysis import run_convergence_sweep
from polyvem.problems import get_problem

_CACHE = {}


@pytest.fixture(scope="session")
def sweep_cache():
    def get(problem, family, k, levels=4, tau=1e-3, seed=0):
        key = (problem, family, k, levels, tau, seed)
        if key not in _CACHE:
            _CACHE[key] = run_convergence_sweep(
                get_problem(problem), family, k, levels=levels, tau=tau, t_end=1.0, seed=seed
            )
        return _CACHE[key]

    return get


# one line per acceptance criterion at the end of the run, independent of
# output capture, so the verdicts are visible in any pytest invocation
_CRITERION = re.compile(r"test_acceptance\.py::test_criterion_(\d+)")


def _criterion_lines(terminalreporter):
    outcomes = {}
    for status, label in (("failed", "FAIL"), ("error", "FAIL"),
                          ("skipped", "SKIP"), ("passed", "PASS")):
        for report in terminalreporter.stats.get(status, []):
            match = _CRITERION.search(getattr(report, "nodeid", ""))
            if match:
                outcomes.setdefault(int(match.group(1)), label)
    try:
        from test_acceptance import CRITERIA
    except ImportError:
        CRITERIA = {}
    return [f"criterion {num:2d}: {outcomes[num]}  {CRITERIA.get(num, '')}"
            for num in sorted(outcomes)]


def _ladder_lines():
    """The largest relative E0h and E1h shift from the record of each
    criteria ladder this test run computed."""
    recorded = read_record()
    lines = []
    for key, record in _CACHE.items():  # (problem, family, k, levels, tau, seed)
        ladder = key[:3]
        if ladder in recorded and key[3:] == tuple(PROTOCOL.values()):
            e0, e1 = (shift.max() for shift in shifts(record, recorded[ladder]))
            lines.append(f"ladder {ladder[0]}/{ladder[1]} k={ladder[2]}: largest shift from "
                         f"{RECORD.name}: E0h {e0:.1e}, E1h {e1:.1e}")
    return sorted(lines)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = _criterion_lines(terminalreporter) + _ladder_lines()
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)

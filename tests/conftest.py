"""Shared fixtures and the acceptance-suite report.

The full-protocol convergence sweeps (tau = 1e-3, four levels) are by far
the most expensive computations in the suite and several test modules
assert against the same ones, so they are computed once per session and
cached by their parameters.
"""

import re
from contextlib import nullcontext

import pytest

from polyvem.analysis import run_convergence_sweep
from polyvem.forms import CoefficientWarning
from polyvem.problems import get_problem

_CACHE = {}

#: Catalog problems whose sigma = gamma - div(beta)/2 is negative somewhere,
#: so that every assembly of them warns.
NEGATIVE_SIGMA = {"variable"}


@pytest.fixture(scope="session")
def sweep_cache():
    def get(problem, family, k, levels=4, tau=1e-3, seed=0):
        key = (problem, family, k, levels, tau, seed)
        if key not in _CACHE:
            # levels run on worker threads, so the sweep as a whole expects the warning
            expected = pytest.warns(CoefficientWarning) if problem in NEGATIVE_SIGMA else nullcontext()
            with expected:
                _CACHE[key] = run_convergence_sweep(
                    get_problem(problem), family, k, levels=levels, tau=tau, seed=seed
                )
        return _CACHE[key]

    return get


# one line per acceptance criterion at the end of the run, independent of
# output capture, so the verdicts are visible in any pytest invocation
_CRITERION = re.compile(r"test_acceptance\.py::test_criterion_(\d+)")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    outcomes = {}
    for status, label in (("failed", "FAIL"), ("error", "FAIL"),
                          ("skipped", "SKIP"), ("passed", "PASS")):
        for report in terminalreporter.stats.get(status, []):
            match = _CRITERION.search(getattr(report, "nodeid", ""))
            if match:
                outcomes.setdefault(int(match.group(1)), label)
    if not outcomes:
        return
    try:
        from test_acceptance import CRITERIA
    except ImportError:
        CRITERIA = {}
    terminalreporter.section("acceptance criteria")
    for num in sorted(outcomes):
        terminalreporter.write_line(
            f"criterion {num:2d}: {outcomes[num]}  {CRITERIA.get(num, '')}"
        )

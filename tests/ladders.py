"""The criteria's errors, recorded: E0h and E1h of the 12 sweeps that the
acceptance criteria share through ``conftest.sweep_cache`` (4 levels,
tau = 1e-3, T = 1, seed 0), kept as hex floats in ``ladder_errors.txt``,
and the active dofs, E0h and E1h of each cycle of criterion 9's adaptive
study (``STUDY``, shared through ``conftest.adaptive_study``), kept in
``adaptive_errors.txt``.  Every tier-1 run compares them with the records
(``test_ladders``), and the acceptance summary prints each largest shift.

Re-record after a change that moves the errors on purpose (the 12 sweeps
and the study take about 40 s), and state the printed shifts with the change:

    PYTHONPATH=src python tests/ladders.py
"""

import subprocess
from pathlib import Path

import numpy as np

RECORD = Path(__file__).with_name("ladder_errors.txt")
LADDERS = [
    (problem, family, k)
    for problem, family in (("variable", "distorted"), ("variable", "concave"),
                            ("variable", "voronoi"), ("convection", "concave"))
    for k in (1, 2, 3)
]
PROTOCOL = {"levels": 4, "tau": 1e-3, "seed": 0}  # the sweep_cache defaults; T = 1
TOLERANCE = 1e-9  # relative; rounding-only changes have moved the errors by 1.1e-11
STUDY_RECORD = Path(__file__).with_name("adaptive_errors.txt")
# criterion 9's study: gaussian, k = 1, 5 cycles from the 8 x 8 grid, theta 0.3
STUDY = {"k": 1, "cycles": 5, "start_n": 8, "theta": 0.3, "tau": 1e-3, "t_end": 1.0}
HISTORIES = ("adaptive", "uniform")  # the two ConvergenceRecords of an AdaptiveStudy


def _rows(path):
    return [line.split() for line in path.read_text(encoding="utf-8").splitlines()
            if line.strip() and not line.startswith("#")]


def read_record(path=RECORD) -> dict:
    """{(problem, family, k): (E0h, E1h)}, each an array in level order."""
    rows = {}
    for problem, family, k, level, e0, e1 in _rows(path):
        rows.setdefault((problem, family, int(k)), []).append(
            (int(level), float.fromhex(e0), float.fromhex(e1)))
    return {key: tuple(np.array(col) for col in zip(*sorted(levels)))[1:]
            for key, levels in rows.items()}


def read_study_record(path=STUDY_RECORD) -> dict:
    """{history: (active dofs, E0h, E1h)}, each an array in cycle order."""
    rows = {}
    for history, cycle, dofs, e0, e1 in _rows(path):
        rows.setdefault(history, []).append(
            (int(cycle), int(dofs), float.fromhex(e0), float.fromhex(e1)))
    return {history: tuple(np.array(col) for col in zip(*sorted(cycles)))[1:]
            for history, cycles in rows.items()}


def shifts(record, recorded) -> tuple:
    """The relative E0h and E1h shifts, per level, of a ``ConvergenceRecord``
    from its recorded errors."""
    return tuple(np.abs(got - want) / np.abs(want)
                 for got, want in zip((record.e0, record.e1), recorded))


def study_shifts(study, recorded) -> dict:
    """{history: (E0h, E1h) relative shifts per cycle} of an ``AdaptiveStudy``
    from its record.  A history whose active dofs differ from the record
    shifts by inf at every recorded cycle."""
    out = {}
    for history in HISTORIES:
        record = getattr(study, history)
        dofs, *errors = recorded[history]
        moved = not np.array_equal(record.active_dofs, dofs)
        out[history] = (np.full(len(dofs), np.inf),) * 2 if moved else shifts(record, errors)
    return out


def run_study():
    """Criterion 9's adaptive study."""
    from polyvem.analysis import run_adaptive_study
    from polyvem.problems import get_problem

    return run_adaptive_study(get_problem("gaussian"), **STUDY)


def commit_label() -> str:
    """The short HEAD commit, noting uncommitted changes to ``src/``."""
    root = Path(__file__).parents[1]

    def git(*args):
        return subprocess.run(["git", *args], cwd=root, capture_output=True, text=True,
                              check=True).stdout.strip()

    dirty = " with uncommitted changes to src/" if git("status", "--porcelain", "--", "src") else ""
    return git("rev-parse", "--short", "HEAD") + dirty


def _write(path, title, columns, rows):
    lines = [f"# {title}", f"# as hex floats, recorded at {commit_label()} by tests/ladders.py",
             f"# {columns}"]
    path.write_text("\n".join(lines + rows) + "\n", encoding="utf-8")
    print(f"wrote {path}")


def main():
    from polyvem.analysis import run_convergence_sweep
    from polyvem.problems import get_problem

    rows = []
    for problem, family, k in LADDERS:
        record = run_convergence_sweep(get_problem(problem), family, k, t_end=1.0, **PROTOCOL)
        for level, (e0, e1) in enumerate(zip(record.e0, record.e1)):
            rows.append(f"{problem} {family} {k} {level} {float(e0).hex()} {float(e1).hex()}")
    _write(RECORD, "E0h and E1h of the criteria ladders (4 levels, tau = 1e-3, T = 1, seed 0)",
           "problem family k level E0h E1h", rows)
    study = run_study()
    rows = [f"{history} {cycle} {pair.num_active} {float(pair.e0).hex()} {float(pair.e1).hex()}"
            for history in HISTORIES
            for cycle, pair in enumerate(getattr(study, history).pairs)]
    protocol = ", ".join(f"{name}={value}" for name, value in STUDY.items())
    _write(STUDY_RECORD, f"active dofs, E0h and E1h of criterion 9's adaptive study (gaussian, "
           f"{protocol})", "history cycle active_dofs E0h E1h", rows)


if __name__ == "__main__":
    import logging

    # the 36 variable assemblies would each log sigma's note; keep the two "wrote" lines
    logging.getLogger("polyvem").setLevel(logging.ERROR)
    main()

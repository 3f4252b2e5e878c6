"""The criteria ladders' errors, recorded: E0h and E1h of the 12 sweeps that
the acceptance criteria share through ``conftest.sweep_cache`` (4 levels,
tau = 1e-3, T = 1, seed 0), kept as hex floats in ``ladder_errors.txt``.
Every tier-1 run compares its ladders with the record (``test_ladders``),
and the acceptance summary prints each ladder's largest shift.

Re-record after a change that moves the errors on purpose (the 12 sweeps
take about half a minute), and state the printed shifts with the change:

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


def read_record(path=RECORD) -> dict:
    """{(problem, family, k): (E0h, E1h)}, each an array in level order."""
    rows = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.strip() and not line.startswith("#"):
            problem, family, k, level, e0, e1 = line.split()
            rows.setdefault((problem, family, int(k)), []).append(
                (int(level), float.fromhex(e0), float.fromhex(e1)))
    return {key: tuple(np.array(col) for col in zip(*sorted(levels)))[1:]
            for key, levels in rows.items()}


def shifts(record, recorded) -> tuple:
    """The relative E0h and E1h shifts, per level, of a ``ConvergenceRecord``
    from its recorded errors."""
    return tuple(np.abs(got - want) / np.abs(want)
                 for got, want in zip((record.e0, record.e1), recorded))


def _commit() -> str:
    root = Path(__file__).parents[1]

    def git(*args):
        return subprocess.run(["git", *args], cwd=root, capture_output=True, text=True,
                              check=True).stdout.strip()

    dirty = git("status", "--porcelain", "--", "src")
    return git("rev-parse", "--short", "HEAD") + (" with uncommitted changes to src/" if dirty else "")


def main():
    from polyvem.analysis import run_convergence_sweep
    from polyvem.problems import get_problem

    lines = [
        "# E0h and E1h of the criteria ladders (4 levels, tau = 1e-3, T = 1, seed 0)",
        f"# as hex floats, recorded at {_commit()} by tests/ladders.py",
        "# problem family k level E0h E1h",
    ]
    for problem, family, k in LADDERS:
        record = run_convergence_sweep(get_problem(problem), family, k, t_end=1.0, **PROTOCOL)
        for level, (e0, e1) in enumerate(zip(record.e0, record.e1)):
            lines.append(f"{problem} {family} {k} {level} {float(e0).hex()} {float(e1).hex()}")
    RECORD.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {RECORD}")


if __name__ == "__main__":
    main()

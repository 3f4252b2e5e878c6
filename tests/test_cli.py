"""End-to-end tests for the ``polyvem`` command-line interface.

Every test drives ``cli.main`` in-process with an argv list (fast, and
argparse still runs); one smoke test execs the installed console script to
make sure the packaging entry point resolves.
"""

import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import polyvem
from polyvem.cli import build_parser, main
from polyvem.forms import CoefficientWarning
from polyvem.mesh import read_mesh
from polyvem.system import read_solution

PATCH_PROBLEM_PY = """\
from polyvem.problems import polynomial_patch

PROBLEM = polynomial_patch(1)
"""

ZERO_PROBLEM_PY = """\
import numpy as np

from polyvem.problems import SobolevProblem, constant_matrix, constant_vector


def _z(x, y):
    return np.zeros(np.shape(x))


def _zt(x, y, t):
    return np.zeros(np.shape(x))


PROBLEM = SobolevProblem(
    name="rest-state",
    mu=constant_matrix(1.0),
    eps=constant_matrix(1.0),
    beta=constant_vector(0.0, 0.0),
    div_beta=_z,
    gamma=_z,
    f=_zt,
    dirichlet=_zt,
    u0=_z,
    grad_u0=lambda x, y: np.zeros(np.shape(x) + (2,)),
    u_exact=_zt,
    grad_u_exact=lambda x, y, t: np.zeros(np.shape(x) + (2,)),
)
"""

NO_EXACT_PROBLEM_PY = """\
import numpy as np

from polyvem.problems import SobolevProblem, constant_matrix, constant_vector


def _z(x, y):
    return np.zeros(np.shape(x))


def _zt(x, y, t):
    return np.zeros(np.shape(x))


PROBLEM = SobolevProblem(
    name="blind",
    mu=constant_matrix(1.0),
    eps=constant_matrix(1.0),
    beta=constant_vector(0.0, 0.0),
    div_beta=_z,
    gamma=_z,
    f=_zt,
    dirichlet=_zt,
    u0=_z,
    grad_u0=lambda x, y: np.zeros(np.shape(x) + (2,)),
)
"""


def _parse_error_line(stdout):
    """Return (h, e0, e1) from the ``h ... E0h ... E1h ...`` solve line."""
    for line in stdout.splitlines():
        parts = line.split()
        if parts[:1] == ["h"] and "E0h" in parts:
            return (
                float(parts[parts.index("h") + 1]),
                float(parts[parts.index("E0h") + 1]),
                float(parts[parts.index("E1h") + 1]),
            )
    raise AssertionError(f"no error line in output:\n{stdout}")


def _strip_seconds(csv_text):
    """Drop the wall-time column so runs can be compared bit-for-bit."""
    return "\n".join(line.rsplit(",", 1)[0] for line in csv_text.splitlines())


class TestMeshCommand:
    def test_distorted_writes_mesh_and_quality(self, tmp_path, capsys):
        out = tmp_path / "d.mesh"
        assert main(["mesh", "distorted", "--n", "8", "--seed", "1", "-o", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert f"wrote {out}" in stdout
        assert "cells=64" in stdout
        mesh = read_mesh(out)
        assert mesh.num_cells == 64
        assert mesh.num_vertices == 81

    def test_voronoi_reports_quality(self, tmp_path, capsys):
        out = tmp_path / "v.mesh"
        argv = ["mesh", "voronoi", "--seeds", "16", "--lloyd", "2", "-o", str(out)]
        assert main(argv) == 0
        stdout = capsys.readouterr().out
        assert "cells=16" in stdout
        assert "h=" in stdout
        assert "kernel/h_K" in stdout
        assert read_mesh(out).num_cells == 16

    def test_concave_cell_count(self, tmp_path, capsys):
        out = tmp_path / "c.mesh"
        assert main(["mesh", "concave", "--n", "4", "-o", str(out)]) == 0
        assert "cells=32" in capsys.readouterr().out
        assert read_mesh(out).num_cells == 32

    def test_default_output_name(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["mesh", "concave", "--n", "2"]) == 0
        assert (tmp_path / "concave.mesh").exists()

    def test_invalid_resolution_fails_cleanly(self, capsys):
        assert main(["mesh", "distorted", "--n", "0"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert err.count("\n") == 1


class TestSolveCommand:
    def test_patch_problem_reports_tiny_errors(self, tmp_path, capsys):
        problem_py = tmp_path / "patch.py"
        problem_py.write_text(PATCH_PROBLEM_PY, encoding="utf-8")
        out = tmp_path / "patch.sol"
        argv = [
            "solve", "--problem", str(problem_py), "--family", "distorted",
            "--n", "4", "--seed", "2", "--k", "1", "--tau", "0.1",
            "-o", str(out),
        ]
        assert main(argv) == 0
        h, e0, e1 = _parse_error_line(capsys.readouterr().out)
        assert 0 < h < 1
        assert e0 <= 1e-8
        assert e1 <= 1e-8
        k, t, u, coeffs = read_solution(out)
        assert k == 1
        assert t == pytest.approx(1.0)
        assert np.all(np.isfinite(u))
        assert len(coeffs) == 16

    def test_zero_problem_is_reproduced_exactly(self, tmp_path, capsys):
        problem_py = tmp_path / "zero.py"
        problem_py.write_text(ZERO_PROBLEM_PY, encoding="utf-8")
        argv = [
            "solve", "--problem", str(problem_py), "--family", "distorted",
            "--n", "3", "--k", "2", "--tau", "0.25",
            "-o", str(tmp_path / "zero.sol"),
        ]
        assert main(argv) == 0
        _, e0, e1 = _parse_error_line(capsys.readouterr().out)
        assert e0 == 0.0
        assert e1 == 0.0

    def test_problem_without_exact_solution_still_solves(self, tmp_path, capsys):
        problem_py = tmp_path / "blind.py"
        problem_py.write_text(NO_EXACT_PROBLEM_PY, encoding="utf-8")
        argv = [
            "solve", "--problem", str(problem_py), "--family", "concave",
            "--n", "2", "--tau", "0.5", "-o", str(tmp_path / "b.sol"),
        ]
        assert main(argv) == 0
        stdout = capsys.readouterr().out
        assert "no exact solution" in stdout
        assert "E0h" not in stdout

    def test_mesh_file_overrides_family_flags(self, tmp_path, capsys):
        mesh_path = tmp_path / "m.mesh"
        assert main(["mesh", "distorted", "--n", "4", "--seed", "5", "-o", str(mesh_path)]) == 0
        expected_h = read_mesh(mesh_path).h
        capsys.readouterr()

        problem_py = tmp_path / "patch.py"
        problem_py.write_text(PATCH_PROBLEM_PY, encoding="utf-8")
        argv = [
            "solve", "--problem", str(problem_py), "--mesh", str(mesh_path),
            "--n", "99", "--tau", "0.5", "-o", str(tmp_path / "m.sol"),
        ]
        assert main(argv) == 0
        h, _, _ = _parse_error_line(capsys.readouterr().out)
        assert h == pytest.approx(expected_h, rel=1e-6)  # printed as %.6e

    def test_catalog_name_and_numeric_alias_agree(self, tmp_path, capsys):
        outputs = []
        for spec in ("1", "variable"):
            argv = [
                "solve", "--problem", spec, "--family", "distorted",
                "--n", "3", "--seed", "4", "--tau", "0.5",
                "-o", str(tmp_path / f"{spec}.sol"),
            ]
            with pytest.warns(CoefficientWarning):
                assert main(argv) == 0
            outputs.append(_parse_error_line(capsys.readouterr().out))
        assert outputs[0] == outputs[1]

    def test_unknown_problem_fails_cleanly(self, capsys):
        assert main(["solve", "--problem", "nope"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ValueError:")
        assert "nope" in err

    def test_missing_mesh_file_fails_cleanly(self, tmp_path, capsys):
        argv = ["solve", "--problem", "1", "--mesh", str(tmp_path / "absent.mesh")]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_problem_file_without_marker_fails_cleanly(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("x = 1\n", encoding="utf-8")
        assert main(["solve", "--problem", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ValueError:")
        assert "PROBLEM" in err

    def test_problem_file_that_raises_names_its_line(self, tmp_path, capsys):
        bad = tmp_path / "raises.py"
        bad.write_text("import math\n\nPROBLEM = undefined_name\n", encoding="utf-8")
        assert main(["solve", "--problem", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: ValueError: {bad}: line 3: NameError: ")
        assert "undefined_name" in err


class TestConvergeCommand:
    def test_writes_one_csv_per_order_and_one_plot(self, tmp_path, capsys):
        problem_py = tmp_path / "patch.py"
        problem_py.write_text(PATCH_PROBLEM_PY, encoding="utf-8")
        outdir = tmp_path / "results"
        argv = [
            "converge", "--problem", str(problem_py), "--family", "concave",
            "--k", "1", "2", "--levels", "2", "--tau", "0.25",
            "--outdir", str(outdir),
        ]
        assert main(argv) == 0
        capsys.readouterr()

        csvs = sorted(outdir.glob("*.csv"))
        assert [p.name for p in csvs] == [
            "polynomial-patch-k1-concave-k1.csv",
            "polynomial-patch-k1-concave-k2.csv",
        ]
        for path in csvs:
            lines = path.read_text(encoding="utf-8").splitlines()
            assert lines[0] == "k,h,dofs,E0h,EOC0,E1h,EOC1,seconds"
            assert len(lines) == 3  # header + 2 levels

        svgs = list(outdir.glob("*.svg"))
        assert [p.name for p in svgs] == ["polynomial-patch-k1-concave.svg"]
        text = svgs[0].read_text(encoding="utf-8")
        assert text.startswith("<svg")
        assert "E0h k=1" in text and "E1h k=2" in text

    def test_single_level_warns_and_skips_plot(self, tmp_path, capsys):
        problem_py = tmp_path / "patch.py"
        problem_py.write_text(PATCH_PROBLEM_PY, encoding="utf-8")
        outdir = tmp_path / "one"
        argv = [
            "converge", "--problem", str(problem_py), "--family", "distorted",
            "--k", "1", "--levels", "1", "--tau", "0.5", "--outdir", str(outdir),
        ]
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert "single level" in captured.err

        (csv_path,) = outdir.glob("*.csv")
        lines = csv_path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 2
        row = lines[1].split(",")
        assert row[4] == "" and row[6] == ""  # no EOC from one level
        assert not list(outdir.glob("*.svg"))

    def test_no_plot_flag(self, tmp_path, capsys):
        problem_py = tmp_path / "patch.py"
        problem_py.write_text(PATCH_PROBLEM_PY, encoding="utf-8")
        outdir = tmp_path / "noplot"
        argv = [
            "converge", "--problem", str(problem_py), "--family", "distorted",
            "--k", "1", "--levels", "2", "--tau", "0.5",
            "--outdir", str(outdir), "--no-plot",
        ]
        assert main(argv) == 0
        capsys.readouterr()
        assert list(outdir.glob("*.csv"))
        assert not list(outdir.glob("*.svg"))

    def test_zero_errors_leave_blank_eoc(self, tmp_path, capsys):
        """Errors that are exactly zero have no EOC and cannot be plotted:
        under --no-plot the ladder still writes its CSV, warning-free."""
        problem_py = tmp_path / "zero.py"
        problem_py.write_text(ZERO_PROBLEM_PY, encoding="utf-8")
        outdir = tmp_path / "zero"
        argv = [
            "converge", "--problem", str(problem_py), "--family", "concave",
            "--k", "1", "--levels", "2", "--tau", "0.5",
            "--outdir", str(outdir), "--no-plot",
        ]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv) == 0
        assert [str(w.message) for w in caught] == []
        assert capsys.readouterr().err == ""
        (csv_path,) = outdir.glob("*.csv")
        rows = [line.split(",") for line in csv_path.read_text(encoding="utf-8").splitlines()[1:]]
        assert len(rows) == 2
        for row in rows:
            assert float(row[3]) == 0.0 and float(row[5]) == 0.0
            assert row[4] == "" and row[6] == ""
        assert not list(outdir.glob("*.svg"))

    def test_zero_errors_are_left_out_of_the_plot(self, tmp_path, capsys):
        """With the plot on, curves whose errors are not all positive are
        skipped with one warning: the CSV is the one --no-plot writes, and
        with no curve left there is no SVG."""
        problem_py = tmp_path / "zero.py"
        problem_py.write_text(ZERO_PROBLEM_PY, encoding="utf-8")
        argv = [
            "converge", "--problem", str(problem_py), "--family", "concave",
            "--k", "1", "--levels", "2", "--tau", "0.5",
        ]
        tables = []
        for run, extra in (("plot", []), ("no-plot", ["--no-plot"])):
            outdir = tmp_path / run
            assert main(argv + ["--outdir", str(outdir)] + extra) == 0
            (csv_path,) = outdir.glob("*.csv")
            lines = csv_path.read_text(encoding="utf-8").splitlines()
            tables.append([line.rsplit(",", 1)[0] for line in lines])  # drop seconds
            assert not list(outdir.glob("*.svg"))
            if run == "plot":
                assert capsys.readouterr().err == (
                    "warning: errors not positive, not plotted: E0h k=1, E1h k=1\n"
                )
        assert tables[0] == tables[1]

    def test_reruns_are_bit_identical_outside_timings(self, tmp_path, capsys):
        problem_py = tmp_path / "patch.py"
        problem_py.write_text(PATCH_PROBLEM_PY, encoding="utf-8")
        texts = []
        for run in ("a", "b"):
            outdir = tmp_path / run
            argv = [
                "converge", "--problem", str(problem_py), "--family", "voronoi",
                "--k", "1", "--levels", "2", "--tau", "0.25",
                "--seed", "3", "--outdir", str(outdir),
            ]
            assert main(argv) == 0
            capsys.readouterr()
            (csv_path,) = outdir.glob("*.csv")
            texts.append(_strip_seconds(csv_path.read_text(encoding="utf-8")))
        assert texts[0] == texts[1]


@pytest.fixture(scope="module")
def adaptive_outdir(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("adaptive")
    argv = [
        "adaptive", "--problem", "gaussian", "--k", "1", "--levels", "3",
        "--start-n", "8", "--theta", "0.3", "--tau", "0.1",
        "--outdir", str(outdir),
    ]
    assert main(argv) == 0
    return outdir


class TestAdaptiveCommand:
    def test_outputs_exist(self, adaptive_outdir):
        assert (adaptive_outdir / "gaussian-adaptive-k1.csv").exists()
        assert (adaptive_outdir / "gaussian-adaptive-k1.svg").exists()
        assert (adaptive_outdir / "gaussian-adaptive-k1-final.mesh").exists()

    def test_csv_lists_both_strategies(self, adaptive_outdir):
        lines = (adaptive_outdir / "gaussian-adaptive-k1.csv").read_text(
            encoding="utf-8"
        ).splitlines()
        assert lines[0] == "strategy,level,h,dofs,active_dofs,E0h,seconds"
        strategies = {line.split(",")[0] for line in lines[1:]}
        assert strategies == {"uniform", "adaptive"}

    def test_final_mesh_has_hanging_nodes(self, adaptive_outdir):
        mesh = read_mesh(adaptive_outdir / "gaussian-adaptive-k1-final.mesh")
        assert mesh.num_cells > 64  # strictly refined beyond the 8x8 start
        assert any(len(cell) > 4 for cell in mesh.cells)

    def test_plot_compares_the_two_curves(self, adaptive_outdir):
        text = (adaptive_outdir / "gaussian-adaptive-k1.svg").read_text(encoding="utf-8")
        assert "uniform" in text and "adaptive" in text

    def test_zero_errors_are_left_out_of_the_plot(self, tmp_path, capsys):
        """A problem whose errors are zero still gets its CSV and final mesh;
        the plot is left out with one warning line."""
        problem_py = tmp_path / "zero.py"
        problem_py.write_text(ZERO_PROBLEM_PY, encoding="utf-8")
        outdir = tmp_path / "out"
        argv = [
            "adaptive", "--problem", str(problem_py), "--k", "1", "--levels", "2",
            "--start-n", "4", "--tau", "0.5", "--t-end", "0.5", "--outdir", str(outdir),
        ]
        assert main(argv) == 0
        assert sorted(path.name for path in outdir.iterdir()) == [
            "rest-state-adaptive-k1-final.mesh", "rest-state-adaptive-k1.csv",
        ]
        assert capsys.readouterr().err == (
            "warning: errors not positive, not plotted: uniform, adaptive\n"
        )


class TestParser:
    def test_help_lists_all_subcommands(self):
        text = build_parser().format_help()
        for sub in ("mesh", "solve", "converge", "adaptive"):
            assert sub in text

    def test_missing_subcommand_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2
        assert "usage" in capsys.readouterr().err

    def test_invalid_order_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["solve", "--k", "4"])
        assert excinfo.value.code == 2

    def test_console_script_entry_point(self, tmp_path):
        out = tmp_path / "tiny.mesh"
        # the child imports the package under test, installed or not
        src = str(Path(polyvem.__file__).parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "polyvem.cli", "mesh", "concave",
             "--n", "2", "-o", str(out)],
            capture_output=True, text=True, check=False,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0, proc.stderr
        assert "cells=8" in proc.stdout
        assert out.exists()

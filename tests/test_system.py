"""Tests for global dof maps, assembly, solvers, time stepping, and snapshots."""

import logging

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from polyvem import system as system_module
from polyvem.forms import build_local_forms
from polyvem.mesh import (
    PolyMesh,
    generate_distorted_square_mesh,
    generate_voronoi_mesh,
)
from polyvem.problems import (
    SobolevProblem,
    constant_matrix,
    constant_vector,
    get_problem,
    polynomial_patch,
)
from polyvem.projectors import build_element, interpolate
from polyvem.system import (
    LinearSolver,
    SolverError,
    TimeStepperConfig,
    assemble,
    build_dof_map,
    dirichlet_values,
    interpolate_global,
    project_initial,
    read_solution,
    run_time_loop,
    solution_from_string,
    solution_to_string,
    solve_linear,
    write_solution,
)


def _zeros3(x, y, t):
    return np.zeros_like(np.asarray(x, dtype=float))


def _zeros2(x, y):
    return np.zeros_like(np.asarray(x, dtype=float))


def _grad_zero(x, y):
    x = np.asarray(x, dtype=float)
    return np.zeros(x.shape + (2,))


def _laplace_problem(u0, grad_u0, name="custom"):
    """Homogeneous steady data around a prescribed initial state."""
    return SobolevProblem(
        name=name,
        mu=constant_matrix(1.0),
        eps=constant_matrix(1.0),
        beta=constant_vector(0.0, 0.0),
        div_beta=_zeros2,
        gamma=_zeros2,
        f=_zeros3,
        dirichlet=_zeros3,
        u0=u0,
        grad_u0=grad_u0,
    )


ZERO_PROBLEM = _laplace_problem(_zeros2, _grad_zero, name="zero")


def unit_square_mesh():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    return PolyMesh(verts, [[0, 1, 2, 3]])


def two_square_mesh():
    verts = np.array(
        [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [0.0, 1.0], [1.0, 1.0], [2.0, 1.0]]
    )
    return PolyMesh(verts, [[0, 1, 4, 3], [1, 2, 5, 4]])


# ---------------------------------------------------------------------------
# dof map
# ---------------------------------------------------------------------------


class TestDofMap:
    def test_2x2_k1_counts(self):
        mesh = generate_distorted_square_mesh(2, 0.0, seed=0)
        dm = build_dof_map(mesh, 1)
        assert dm.size == 9
        assert len(dm.active) == 1
        assert len(dm.boundary) == 8

    def test_2x2_k2_counts(self):
        mesh = generate_distorted_square_mesh(2, 0.0, seed=0)
        dm = build_dof_map(mesh, 2)
        # 9 vertices + 12 edges x 1 + 4 cells x 1
        assert dm.size == 25

    def test_hexagon_k3_counts(self):
        ang = np.linspace(0.0, 2.0 * np.pi, 7)[:-1]
        verts = np.column_stack([np.cos(ang), np.sin(ang)])
        mesh = PolyMesh(verts, [list(range(6))])
        dm = build_dof_map(mesh, 3)
        assert dm.size == 6 + 2 * 6 + 3
        # a single cell has no interior vertices or edges; only moments active
        assert len(dm.active) == 3

    def test_vertex_dof_points_are_vertices(self):
        mesh = generate_voronoi_mesh(9, seed=3)
        dm = build_dof_map(mesh, 2)
        assert np.array_equal(dm.dof_points[: mesh.num_vertices], mesh.vertices)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_cell_dofs_match_local_boundary_points(self, k):
        """Global dof ordering must agree with each cell's local traversal,
        including interior edge points seen from both orientations."""
        mesh = generate_voronoi_mesh(16, seed=5)
        system = assemble(mesh, k, ZERO_PROBLEM, check=False)
        dm = system.dofmap

        def fn(x, y):
            return np.sin(1.3 * x) + np.cos(0.7 * y) + x * y

        u = interpolate_global(system, fn)
        for ci, el in enumerate(system.elements):
            pts = el.boundary_dof_points
            want = fn(pts[:, 0], pts[:, 1])
            got = u[dm.cell_dofs(ci)][: len(pts)]
            assert np.allclose(got, want, atol=1e-13)


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------


class TestAssembly:
    def test_single_cell_matches_local_forms(self):
        mesh = unit_square_mesh()
        problem = get_problem("variable")
        system = assemble(mesh, 2, problem)
        element = build_element(mesh.cell_geometry(0), 2)
        local = build_local_forms(element, problem)
        cd = system.dofmap.cell_dofs(0)
        for name, mat in [("m1", local.m1), ("m2", local.m2), ("a", local.a), ("b", local.b)]:
            dense = getattr(system, name)[np.ix_(cd, cd)].toarray()
            assert np.allclose(dense, mat, atol=1e-14), name

    def test_two_cells_sum_on_shared_dofs(self):
        """Hand-scattered local matrices must equal the assembled operator."""
        mesh = two_square_mesh()
        problem = get_problem("variable")
        k = 2
        system = assemble(mesh, k, problem)
        dm = system.dofmap
        n = dm.size
        for name in ["m1", "m2", "a", "b"]:
            ref = np.zeros((n, n))
            for ci in range(mesh.num_cells):
                element = build_element(mesh.cell_geometry(ci), k)
                local = getattr(build_local_forms(element, problem), name)
                cd = dm.cell_dofs(ci)
                ref[np.ix_(cd, cd)] += local
            assert np.allclose(getattr(system, name).toarray(), ref, atol=1e-13), name

    def test_global_convection_skew(self):
        mesh = generate_voronoi_mesh(25, seed=1)
        system = assemble(mesh, 2, get_problem("variable"))
        b = system.b.toarray()
        assert np.max(np.abs(b + b.T)) <= 1e-12

    def test_coefficients_checked_at_form_points(self, monkeypatch):
        """The definiteness check samples every point where the forms
        evaluate mu, eps and sigma, not the sparser load points."""
        seen = []
        check = system_module.check_coefficients

        def spy(problem, points):
            seen.append(points)
            return check(problem, points)

        monkeypatch.setattr(system_module, "check_coefficients", spy)
        system = assemble(generate_voronoi_mesh(16, seed=2), 2, get_problem("convection"))
        form_points = np.vstack([el.quad_points for el in system.elements])
        assert len(seen) == 1
        np.testing.assert_array_equal(seen[0], form_points)
        assert len(form_points) > len(system.quad_points)

    def test_mass_operator_is_positive_definite(self):
        mesh = generate_voronoi_mesh(16, seed=2)
        system = assemble(mesh, 2, get_problem("variable"))
        g = (system.m1 + system.m2).toarray()
        eigs = np.linalg.eigvalsh(0.5 * (g + g.T))
        assert eigs[0] > 0


# ---------------------------------------------------------------------------
# linear solver
# ---------------------------------------------------------------------------


class TestLinearSolver:
    def test_identity(self):
        rhs = np.arange(5.0)
        assert np.allclose(solve_linear(np.eye(5), rhs), rhs)

    def test_small_system(self):
        x = solve_linear(np.array([[2.0, 1.0], [1.0, 2.0]]), np.array([3.0, 3.0]))
        assert np.allclose(x, [1.0, 1.0], atol=1e-14)

    def test_random_spd_residual_contract(self):
        rng = np.random.default_rng(7)
        r = rng.standard_normal((50, 50))
        a = r @ r.T + 50.0 * np.eye(50)
        b = rng.standard_normal(50)
        x = solve_linear(a, b)
        res = np.linalg.norm(a @ x - b)
        scale = np.linalg.norm(a, ord=np.inf) * np.linalg.norm(x) + np.linalg.norm(b)
        assert res <= 1e-12 * scale

    def test_sparse_input(self):
        a = sp.csr_matrix(np.array([[4.0, 1.0], [1.0, 3.0]]))
        x = solve_linear(a, np.array([1.0, 2.0]))
        assert np.allclose(a @ x, [1.0, 2.0], atol=1e-14)

    def test_singular_matrix_raises(self):
        a = np.array([[1.0, 2.0], [2.0, 4.0]])
        with pytest.raises(SolverError):
            solve_linear(a, np.array([1.0, 0.0]))

    def test_factorization_reused_across_solves(self):
        rng = np.random.default_rng(3)
        r = rng.standard_normal((20, 20))
        a = sp.csr_matrix(r @ r.T + 20.0 * np.eye(20))
        solver = LinearSolver(a)
        for _ in range(4):
            b = rng.standard_normal(20)
            x = solver.solve(b)
            assert np.linalg.norm(a @ x - b) <= 1e-10


# ---------------------------------------------------------------------------
# initial datum
# ---------------------------------------------------------------------------


class TestProjectInitial:
    def test_zero_datum_is_exact_zero(self):
        mesh = generate_distorted_square_mesh(4, 0.3, seed=1)
        system = assemble(mesh, 2, get_problem("variable"))
        u0 = project_initial(system)
        assert np.all(u0 == 0.0)

    def test_polynomial_datum_equals_interpolation(self):
        def u0(x, y):
            return 1.0 + x + 2.0 * y

        def grad_u0(x, y):
            x = np.asarray(x, dtype=float)
            g = np.zeros(x.shape + (2,))
            g[..., 0] = 1.0
            g[..., 1] = 2.0
            return g

        problem = _laplace_problem(u0, grad_u0)
        mesh = generate_voronoi_mesh(16, seed=4)
        system = assemble(mesh, 1, problem)
        u = project_initial(system)
        u_interp = interpolate_global(system, u0)
        assert np.allclose(u, u_interp, atol=1e-11)

    def test_fallback_interpolation_logged(self, caplog):
        def u0(x, y):
            return np.sin(np.pi * x) * np.sin(np.pi * y)

        problem = _laplace_problem(u0, None)
        mesh = generate_distorted_square_mesh(3, 0.2, seed=0)
        system = assemble(mesh, 1, problem)
        with caplog.at_level(logging.INFO, logger="polyvem.system"):
            u = project_initial(system)
        assert "interpolation" in caplog.text
        assert np.allclose(u, interpolate_global(system, u0))


# ---------------------------------------------------------------------------
# time stepping
# ---------------------------------------------------------------------------


class TestTimeStepper:
    def test_config_validation(self):
        assert TimeStepperConfig(tau=1e-3).num_steps() == 1000
        assert TimeStepperConfig(tau=0.1, t_end=1.0).num_steps() == 10
        with pytest.raises(ValueError, match="positive"):
            TimeStepperConfig(tau=0.0).num_steps()
        with pytest.raises(ValueError, match="integer"):
            TimeStepperConfig(tau=0.3, t_end=1.0).num_steps()

    def test_zero_problem_stays_zero(self):
        mesh = generate_distorted_square_mesh(3, 0.2, seed=2)
        system = assemble(mesh, 2, ZERO_PROBLEM)
        result = run_time_loop(system, TimeStepperConfig(tau=0.1))
        assert result.n_steps == 10
        assert result.t == pytest.approx(1.0, abs=1e-14)
        assert np.all(result.u == 0.0)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_patch_solution_reproduced(self, k):
        """Solutions linear in time and polynomial in space are captured to
        rounding error: backward Euler is exact and the element contains P_k."""
        problem = polynomial_patch(k)
        mesh = generate_distorted_square_mesh(4, 0.3, seed=0)
        system = assemble(mesh, k, problem)
        result = run_time_loop(system, TimeStepperConfig(tau=0.1))

        def exact(x, y):
            return problem.u_exact(x, y, 1.0)

        defect = result.u - interpolate_global(system, exact)
        assert np.max(np.abs(defect)) <= 1e-9

    def test_dirichlet_trace_exact(self):
        mesh = generate_distorted_square_mesh(3, 0.2, seed=5)
        system = assemble(mesh, 2, get_problem("variable"))
        result = run_time_loop(system, TimeStepperConfig(tau=0.25))
        bdry = system.dofmap.boundary
        assert np.array_equal(result.u[bdry], dirichlet_values(system, 1.0))

    def test_single_step_matches_direct_solve(self):
        """One pass through the loop reproduces an independently assembled
        backward-Euler step, confirming the cached factorization path."""
        mesh = generate_voronoi_mesh(16, seed=6)
        problem = get_problem("variable")
        system = assemble(mesh, 2, problem)
        tau = 0.5
        result = run_time_loop(system, TimeStepperConfig(tau=tau, t_end=tau))

        dm = system.dofmap
        act, bdry = dm.active, dm.boundary
        u0 = project_initial(system)
        g_mat = (system.m1 + system.m2).tocsr()
        lhs = (g_mat + tau * (system.a + system.b)).tocsr()
        g_b = dirichlet_values(system, tau)
        rhs = (g_mat @ u0)[act] + tau * system.load_vector(tau)[act]
        rhs -= lhs[np.ix_(act, bdry)] @ g_b
        u_act = solve_linear(lhs[np.ix_(act, act)], rhs)
        scale = max(1.0, np.max(np.abs(u_act)))
        assert np.max(np.abs(result.u[act] - u_act)) <= 1e-12 * scale

    def test_energy_non_increasing_without_forcing(self):
        def u0(x, y):
            return np.sin(np.pi * x) * np.sin(np.pi * y)

        def grad_u0(x, y):
            x = np.asarray(x, dtype=float)
            y = np.asarray(y, dtype=float)
            g = np.zeros(x.shape + (2,))
            g[..., 0] = np.pi * np.cos(np.pi * x) * np.sin(np.pi * y)
            g[..., 1] = np.pi * np.sin(np.pi * x) * np.cos(np.pi * y)
            return g

        problem = _laplace_problem(u0, grad_u0, name="decay")
        mesh = generate_distorted_square_mesh(8, 0.2, seed=1)
        system = assemble(mesh, 1, problem)
        config = TimeStepperConfig(tau=0.05, debug_energy=True)
        result = run_time_loop(system, config)
        energies = result.energies
        assert energies is not None and len(energies) == 21
        assert energies[0] > 0
        diffs = np.diff(energies)
        assert np.all(diffs <= 1e-10 * energies[0])

    def test_bitwise_determinism(self):
        def run():
            mesh = generate_voronoi_mesh(16, seed=9)
            system = assemble(mesh, 2, get_problem("variable"))
            return run_time_loop(system, TimeStepperConfig(tau=0.1)).u

        assert np.array_equal(run(), run())


# ---------------------------------------------------------------------------
# snapshots
# ---------------------------------------------------------------------------


class TestSnapshots:
    def _solved(self):
        mesh = generate_distorted_square_mesh(3, 0.2, seed=4)
        system = assemble(mesh, 2, get_problem("variable"))
        result = run_time_loop(system, TimeStepperConfig(tau=0.5))
        return system, result

    def test_roundtrip(self, tmp_path):
        system, result = self._solved()
        path = tmp_path / "state.sol"
        write_solution(path, system, result)
        k, t, values, coeffs = read_solution(path)
        assert k == 2
        assert t == result.t
        assert np.array_equal(values, result.u)
        assert len(coeffs) == system.mesh.num_cells
        # the stored cell polynomials are the L2 projections of the dofs
        el = system.elements[0]
        want = el.pi0_star @ result.u[system.dofmap.cell_dofs(0)]
        assert np.allclose(coeffs[0], want, atol=0, rtol=0)

    def test_string_roundtrip_bitwise(self):
        system, result = self._solved()
        text = solution_to_string(system, result)
        _, _, values, coeffs = solution_from_string(text)
        assert np.array_equal(values, result.u)
        text2 = solution_to_string(system, result)
        assert text == text2

    def test_bad_header_rejected(self):
        with pytest.raises(ValueError, match="line 1"):
            solution_from_string("solution 2\nk 1\n")

    def test_truncated_values_rejected(self):
        system, result = self._solved()
        lines = solution_to_string(system, result).splitlines()
        with pytest.raises(ValueError):
            solution_from_string("\n".join(lines[:6]))

    def test_bad_dof_count_rejected(self):
        system, result = self._solved()
        text = solution_to_string(system, result)
        text = text.replace(f"dofs {len(result.u)}", "dofs 3", 1)
        with pytest.raises(ValueError):
            solution_from_string(text)

    def _lines(self):
        system, result = self._solved()
        return solution_to_string(system, result).splitlines(), len(result.u)

    def test_truncated_cell_block_rejected(self):
        lines, _ = self._lines()
        with pytest.raises(ValueError, match=r"line \d+: unexpected end of file in cell block"):
            solution_from_string("\n".join(lines[:-2]))

    def test_bad_dof_value_names_its_line(self):
        lines, _ = self._lines()
        lines[6] = "not-a-number"
        with pytest.raises(ValueError, match="line 7: bad number"):
            solution_from_string("\n".join(lines))

    def test_bad_cell_count_names_its_line(self):
        lines, n = self._lines()
        lines[4 + n] = "cells many"
        with pytest.raises(ValueError, match=f"line {5 + n}: bad cells value"):
            solution_from_string("\n".join(lines))

    def test_short_coefficient_row_rejected(self):
        lines, n = self._lines()
        lines[6 + n] = " ".join(lines[6 + n].split()[:-1])
        with pytest.raises(ValueError, match=f"line {7 + n}: expected 6 value"):
            solution_from_string("\n".join(lines))

    def test_extra_row_rejected(self):
        lines, _ = self._lines()
        with pytest.raises(ValueError, match=f"line {len(lines) + 1}: extra line"):
            solution_from_string("\n".join(lines + [lines[-1]]))

    def test_unsupported_order_rejected(self):
        lines, _ = self._lines()
        lines[1] = "k 7"
        with pytest.raises(ValueError, match="line 2: order k=7"):
            solution_from_string("\n".join(lines))


def _snapshot_text(k, t, u, rows):
    """The snapshot format written by ``solution_to_string``."""
    lines = ["solution 1", f"k {k}", f"time {t!r}", f"dofs {len(u)}"]
    lines += [repr(v) for v in u]
    lines.append(f"cells {len(rows)}")
    lines += [" ".join(repr(c) for c in row) for row in rows]
    return "\n".join(lines) + "\n"


_finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _snapshots(draw):
    k = draw(st.sampled_from([1, 2, 3]))
    u = draw(st.lists(_finite, max_size=12))
    width = (k + 1) * (k + 2) // 2
    rows = draw(st.lists(st.lists(_finite, min_size=width, max_size=width), max_size=5))
    return k, draw(_finite), u, rows


class TestSnapshotProperties:
    @settings(max_examples=60, deadline=None)
    @given(_snapshots())
    def test_roundtrip_bitwise(self, snap):
        k, t, u, rows = snap
        got_k, got_t, got_u, got_rows = solution_from_string(_snapshot_text(k, t, u, rows))
        assert (got_k, got_t) == (k, t)
        assert np.array_equal(got_u, np.array(u, dtype=float))
        assert len(got_rows) == len(rows)
        for got, want in zip(got_rows, rows):
            assert np.array_equal(got, np.array(want))

    @settings(max_examples=60, deadline=None)
    @given(_snapshots(), st.data())
    def test_every_truncation_rejected_with_line_number(self, snap, data):
        lines = _snapshot_text(*snap).splitlines()
        cut = data.draw(st.integers(min_value=0, max_value=len(lines) - 1))
        with pytest.raises(ValueError, match=r"^line \d+: "):
            solution_from_string("\n".join(lines[:cut]))

"""Tests for global dof maps, assembly, solvers, time stepping, and snapshots."""

import dataclasses
import logging
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import polyvem.system as system_module
from manufactured import polynomial_patch
from p1 import p1_matrices, triangle_grid
from polyvem.analysis import compute_errors, error_indicators
from polyvem.forms import build_local_forms
from polyvem.projectors import build_element, polynomial_dimension
from polyvem.mesh import (
    PolyMesh,
    generate_concave_mesh,
    generate_distorted_square_mesh,
    generate_voronoi_mesh,
    refine_cells,
)
from polyvem.problems import (
    PROBLEM_NAMES,
    CoefficientError,
    SobolevProblem,
    constant_matrix,
    constant_vector,
    get_problem,
    sample,
)
from polyvem.system import (
    MAX_REFINE,
    RESIDUAL_TOL,
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
    write_solution,
)


def _squared_residual_ratio(a, x, b):
    """(||b - A x|| / ||b||)^2 of double inputs, exactly, as a ``Fraction``."""
    res = [Fraction(bi) - sum(Fraction(aij) * Fraction(xj) for aij, xj in zip(row, x))
           for row, bi in zip(a, b)]
    return sum(r * r for r in res) / sum(Fraction(bi) ** 2 for bi in b)


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


def _wave(x, y):
    return np.sin(3.0 * x) * np.cos(2.0 * y)


def _grad_wave(x, y):
    return np.stack(
        [3.0 * np.cos(3.0 * x) * np.cos(2.0 * y), -2.0 * np.sin(3.0 * x) * np.sin(2.0 * y)],
        axis=-1,
    )


#: The variable problem (variable mu, eps, beta and sigma) from a nonzero datum.
VARIABLE_FROM_WAVE = dataclasses.replace(get_problem("variable"), u0=_wave, grad_u0=_grad_wave)


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
        mesh = generate_voronoi_mesh(9, lloyd_iterations=3, seed=3)
        dm = build_dof_map(mesh, 2)
        assert np.array_equal(dm.dof_points[: mesh.num_vertices], mesh.vertices)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_cell_dofs_match_local_boundary_points(self, k):
        """Global dof ordering must agree with each cell's local traversal,
        including interior edge points seen from both orientations."""
        mesh = generate_voronoi_mesh(16, lloyd_iterations=3, seed=5)
        system = assemble(mesh, k, ZERO_PROBLEM)
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


GROUP_MESHES = {
    "voronoi": lambda: generate_voronoi_mesh(30, lloyd_iterations=3, seed=4),
    "hanging": lambda: refine_cells(generate_distorted_square_mesh(4, 0.2, seed=3), [1, 5, 10]),
    "concave": lambda: generate_concave_mesh(2),
}

ELEMENT_FIELDS = ("dof_matrix", "b_matrix", "pi_grad_star", "pi0_star", "pi0_grad_star", "stab_q")


class TestAssembly:
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("family", sorted(GROUP_MESHES))
    def test_group_matches_cell_built_alone(self, family, k):
        """Every cell's operators and local forms are the same whether the
        cell is built in its group or as a group of one; the groups cover
        each cell once and ``elements`` is in cell order."""
        mesh = GROUP_MESHES[family]()
        problem = get_problem("variable")
        system = assemble(mesh, k, problem)
        covered = np.concatenate([group.geom.index for group in system.groups])
        assert sorted(covered) == list(range(mesh.num_cells))
        assert [int(el.geom.index) for el in system.elements] == list(range(mesh.num_cells))
        keys = [(g.layout.num_vertices, g.geom.triangles.shape[1]) for g in system.groups]
        assert len(set(keys)) == len(keys) > (family != "concave")
        if family == "hanging":  # a hanging node next to vertex 0 drops a fan triangle
            assert any(t < m - 2 for m, t in keys)

        def close(got, want):
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

        for group in system.groups:
            forms = build_local_forms(group, problem)
            for pos, ci in enumerate(group.geom.index):
                alone = build_element(mesh.cell_geometry(ci)[None], k)
                alone_forms = build_local_forms(alone, problem)
                for name in ELEMENT_FIELDS:
                    close(getattr(system.elements[ci], name), getattr(alone, name)[0])
                for name in ("m1", "m2", "a", "b"):
                    close(getattr(forms, name)[pos], getattr(alone_forms, name)[0])

    def test_single_cell_matches_local_forms(self):
        mesh = unit_square_mesh()
        problem = get_problem("variable")
        system = assemble(mesh, 2, problem)
        local = build_local_forms(build_element(mesh.cell_geometry(0)[None], 2), problem)
        cd = system.dofmap.cell_dofs(0)
        for name, mat in [("m1", local.m1), ("m2", local.m2), ("a", local.a), ("b", local.b)]:
            dense = getattr(system, name)[np.ix_(cd, cd)].toarray()
            assert np.allclose(dense, mat[0], atol=1e-14), name

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
                element = build_element(mesh.cell_geometry(ci)[None], k)
                local = getattr(build_local_forms(element, problem), name)[0]
                cd = dm.cell_dofs(ci)
                ref[np.ix_(cd, cd)] += local
            assert np.allclose(getattr(system, name).toarray(), ref, atol=1e-13), name

    def test_global_convection_skew(self):
        mesh = generate_voronoi_mesh(25, lloyd_iterations=3, seed=1)
        system = assemble(mesh, 2, get_problem("variable"))
        b = system.b.toarray()
        assert np.max(np.abs(b + b.T)) <= 1e-12

    def test_coefficients_sampled_once_at_form_points(self, caplog):
        """Each coefficient field is evaluated once per assembly: at every
        form point of every group, and mu, eps and sigma also at the
        centroids, which scale the stabilization.  The source reads the
        same points.  The lowest sigma of all groups gives one note, logged
        once at WARNING, and no Python warning."""
        problem = get_problem("variable")
        seen = {name: [] for name in ("mu", "eps", "beta", "gamma", "div_beta")}

        def spy(name):
            field = getattr(problem, name)

            def wrapped(x, y):
                seen[name].append(np.column_stack([x, y]))
                return field(x, y)

            return wrapped

        wrapped = dataclasses.replace(problem, **{name: spy(name) for name in seen})
        mesh = generate_voronoi_mesh(16, lloyd_iterations=3, seed=2)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            system = assemble(mesh, 2, wrapped)
        assert len(system.groups) > 1
        form_points = [g.quad_points.reshape(-1, 2) for g in system.groups]
        with_centroids = [
            p for g, f in zip(system.groups, form_points) for p in (f, g.geom.centroid)
        ]
        for name, calls in seen.items():
            want = form_points if name == "beta" else with_centroids
            np.testing.assert_array_equal(np.concatenate(calls), np.concatenate(want), err_msg=name)
        assert caught == []
        assert len(system.coefficient_notes) == 1
        assert [(r.name, r.levelno, r.getMessage()) for r in caplog.records] == [
            ("polyvem.forms", logging.WARNING, system.coefficient_notes[0])
        ]
        np.testing.assert_array_equal(np.concatenate(form_points), system.quad_points)

    def test_only_forms_reads_coefficients(self):
        """Assembly, the initial projection and the error indicators read the
        coefficient fields only through ``polyvem.forms``: the nearest
        polyvem frame of every call, past the sampler ``problems.sample``
        and ``SobolevProblem.sigma``, lies in that module."""
        passed = {("polyvem.problems", "sample"), ("polyvem.problems", "sigma")}
        callers = {name: [] for name in ("mu", "eps", "beta", "gamma", "div_beta")}

        def spy(name):
            field = getattr(VARIABLE_FROM_WAVE, name)

            def wrapped(x, y):
                frame = sys._getframe(1)
                while True:
                    where = (frame.f_globals.get("__name__", ""), frame.f_code.co_name)
                    if where[0].startswith("polyvem") and where not in passed:
                        break
                    frame = frame.f_back
                callers[name].append(where)
                return field(x, y)

            return wrapped

        problem = dataclasses.replace(VARIABLE_FROM_WAVE, **{n: spy(n) for n in callers})
        system = assemble(generate_voronoi_mesh(16, lloyd_iterations=3, seed=2), 2, problem)
        calls = {name: len(seen) for name, seen in callers.items()}
        result = run_time_loop(system, TimeStepperConfig(tau=0.5, t_end=0.5))
        assert len(callers["mu"]) > calls["mu"]  # the projection sampled mu
        calls = {name: len(seen) for name, seen in callers.items()}
        error_indicators(system, result.u)
        assert len(callers["eps"]) > calls["eps"]  # and the indicators eps
        for name, seen in callers.items():
            assert seen and {module for module, _ in seen} == {"polyvem.forms"}, (name, seen)

    def test_only_the_sampler_calls_fields(self):
        """All 11 fields of a problem are called by ``problems.sample`` alone,
        gamma and div_beta through ``SobolevProblem.sigma``: that is the
        nearest polyvem frame of every call made by assembly, the time loop,
        the interpolated initial value, the errors and the indicators."""
        callers = {f.name: set() for f in dataclasses.fields(SobolevProblem) if f.name != "name"}

        def spy(name):
            field = getattr(VARIABLE_FROM_WAVE, name)

            def wrapped(*args):
                frame = sys._getframe(1)
                while not frame.f_globals.get("__name__", "").startswith("polyvem"):
                    frame = frame.f_back
                callers[name].add((frame.f_globals["__name__"], frame.f_code.co_name))
                return field(*args)

            return wrapped

        problem = dataclasses.replace(VARIABLE_FROM_WAVE, **{n: spy(n) for n in callers})
        system = assemble(generate_voronoi_mesh(16, lloyd_iterations=3, seed=2), 2, problem)
        result = run_time_loop(system, TimeStepperConfig(tau=0.5, t_end=1.0))
        project_initial(dataclasses.replace(system, problem=dataclasses.replace(problem,
                                                                                grad_u0=None)))
        compute_errors(system, result.u, result.t)
        error_indicators(system, result.u)
        assert len(callers) == 11
        for name, seen in callers.items():
            where = "sigma" if name in ("gamma", "div_beta") else "sample"
            assert seen == {("polyvem.problems", where)}, name

    def test_mass_operator_is_positive_definite(self):
        mesh = generate_voronoi_mesh(16, lloyd_iterations=3, seed=2)
        system = assemble(mesh, 2, get_problem("variable"))
        g = (system.m1 + system.m2).toarray()
        eigs = np.linalg.eigvalsh(0.5 * (g + g.T))
        assert eigs[0] > 0


class TestP1Oracle:
    """On triangles the k = 1 space is P1: the assembled forms equal the P1
    finite element matrices of ``p1.p1_matrices``, which share no code with
    the solver but the quadrature rule."""

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("name", PROBLEM_NAMES)
    def test_k1_forms_are_p1_matrices(self, name, seed):
        mesh = triangle_grid(6, seed)
        assert mesh.num_cells == 72
        problem = get_problem(name)
        system = assemble(mesh, 1, problem)
        assert system.dofmap.size == mesh.num_vertices
        for form, want in p1_matrices(mesh, problem).items():
            got = getattr(system, form).toarray()
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max(), form


# ---------------------------------------------------------------------------
# linear solver
# ---------------------------------------------------------------------------


class TestLinearSolver:
    def test_identity(self):
        rhs = np.arange(5.0)
        assert np.allclose(LinearSolver(np.eye(5)).solve(rhs), rhs)

    def test_small_system(self):
        x = LinearSolver(np.array([[2.0, 1.0], [1.0, 2.0]])).solve(np.array([3.0, 3.0]))
        assert np.allclose(x, [1.0, 1.0], atol=1e-14)

    def test_random_spd_residual_contract(self):
        rng = np.random.default_rng(7)
        r = rng.standard_normal((50, 50))
        a = r @ r.T + 50.0 * np.eye(50)
        b = rng.standard_normal(50)
        x = LinearSolver(a).solve(b)
        res = np.linalg.norm(a @ x - b)
        scale = np.linalg.norm(a, ord=np.inf) * np.linalg.norm(x) + np.linalg.norm(b)
        assert res <= 1e-12 * scale

    def test_sparse_input(self):
        a = sp.csr_matrix(np.array([[4.0, 1.0], [1.0, 3.0]]))
        x = LinearSolver(a).solve(np.array([1.0, 2.0]))
        assert np.allclose(a @ x, [1.0, 2.0], atol=1e-14)

    def test_singular_matrix_raises(self):
        a = np.array([[1.0, 2.0], [2.0, 4.0]])
        with pytest.raises(SolverError):
            LinearSolver(a).solve(np.array([1.0, 0.0]))

    def test_factorization_reused_across_solves(self):
        rng = np.random.default_rng(3)
        r = rng.standard_normal((20, 20))
        a = sp.csr_matrix(r @ r.T + 20.0 * np.eye(20))
        solver = LinearSolver(a)
        for _ in range(4):
            b = rng.standard_normal(20)
            x = solver.solve(b)
            assert np.linalg.norm(a @ x - b) <= 1e-10

    # The contract's branches, reached through a factor whose output is
    # scaled: each pass measures the residual and refines unless it is the
    # last, and one error follows the passes.

    @staticmethod
    def _spd_with_scaled_factor(scale):
        rng = np.random.default_rng(0)
        r = rng.standard_normal((40, 40))
        solver = LinearSolver(r @ r.T + 40.0 * np.eye(40))
        apply, calls = solver._apply, []

        def scaled(vec):
            calls.append(vec)
            return apply(vec) * scale

        solver._apply = scaled
        return solver, calls, rng.standard_normal(40)

    def test_refinement_meets_contract_after_two_steps(self):
        solver, calls, b = self._spd_with_scaled_factor(1.0 + 1e-5)
        x = solver.solve(b)
        assert len(calls) == 3
        assert np.allclose(x, LinearSolver(solver.matrix).solve(b), rtol=1e-10, atol=0.0)

    def test_exhausted_refinement_raises(self):
        solver, calls, b = self._spd_with_scaled_factor(1.01)
        with pytest.raises(
            SolverError, match=r"^linear solve residual 1\.000e-08 exceeds tolerance 1\.0e-12$"
        ):
            solver.solve(b)
        assert len(calls) == 1 + MAX_REFINE

    def test_zero_rhs_applies_no_factor(self):
        solver, calls, _ = self._spd_with_scaled_factor(1.0)
        x = solver.solve(np.zeros(40))
        assert np.all(x == 0.0) and x.shape == (40,)
        assert calls == []

    def test_overflowing_residual_raises(self):
        """A finite iterate whose residual overflows double on the cast
        back from extended precision (numpy warns about the cast first)."""
        solver = LinearSolver(np.array([[2.0, 1.0], [1.0, 2.0]]))
        solver._apply = lambda vec: np.full_like(vec, 1e308)
        with pytest.warns(RuntimeWarning, match="overflow"), pytest.raises(
            SolverError, match="^linear solve produced non-finite residual$"
        ):
            solver.solve(np.array([1.0, 0.0]))

    def test_non_finite_factor_output_raises_after_one_pass(self):
        """A first pass like every other: NaN from the factor shows in the
        residual, which fails the solve at once."""
        solver, calls, b = self._spd_with_scaled_factor(np.nan)
        with pytest.raises(SolverError, match="^linear solve produced non-finite residual$"):
            solver.solve(b)
        assert len(calls) == 1

    def test_returned_vector_meets_contract_exactly(self):
        a = np.array([[4.0, 1.0, 0.5], [1.0, 3.0, -1.0], [0.5, -1.0, 5.0]])
        b = np.array([1.0, -2.0, 0.25])
        x = LinearSolver(a).solve(b)
        assert _squared_residual_ratio(a, x, b) <= Fraction(RESIDUAL_TOL) ** 2

    @pytest.mark.xfail(
        np.finfo(np.longdouble).eps < np.finfo(float).eps, strict=True,
        reason="the extended iterate is certified, then rounded to double (ROADMAP item 1a)",
    )
    def test_ill_conditioned_2x2_returns_certified_vector_or_raises(self):
        """A = R diag(1, 1e-6) R^T with R the rotation by 0.3 rad: the
        vector returned must itself meet the contract, exactly."""
        c, s = np.cos(0.3), np.sin(0.3)
        rot = np.array([[c, -s], [s, c]])
        a = rot @ np.diag([1.0, 1e-6]) @ rot.T
        b = a @ rot[:, 1]
        try:
            x = LinearSolver(a).solve(b)
        except SolverError:
            return
        assert _squared_residual_ratio(a, x, b) <= Fraction(RESIDUAL_TOL) ** 2


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
        mesh = generate_voronoi_mesh(16, lloyd_iterations=3, seed=4)
        system = assemble(mesh, 1, problem)
        u = project_initial(system)
        u_interp = interpolate_global(system, u0)
        assert np.allclose(u, u_interp, atol=1e-11)

    def test_variable_mu_matches_per_cell_reference(self):
        """With a variable mu and a nonzero datum at k = 3, the projection
        solves m2 against (mu grad u0, pi0 grad phi_i) summed cell by cell
        on the forms' rule, with the trace of u0 on the boundary."""
        problem = VARIABLE_FROM_WAVE
        system = assemble(generate_voronoi_mesh(16, lloyd_iterations=3, seed=4), 3, problem)
        dm = system.dofmap
        rhs = np.zeros(system.size)
        for ci, el in enumerate(system.elements):
            x, y = el.quad_points.T
            vk1 = el.monomial_values[:, : polynomial_dimension(2)]
            moments = np.einsum(
                "qi,q,qcd,qd->ci", vk1, el.quad_weights, problem.mu(x, y), _grad_wave(x, y)
            )
            rhs[dm.cell_dofs(ci)] += np.einsum("cin,ci->n", el.pi0_grad_star, moments)
        act, bdry = dm.active, dm.boundary
        want = np.zeros(system.size)
        want[bdry] = _wave(*dm.dof_points[bdry].T)
        m2 = system.m2.toarray()
        b_act = rhs[act] - m2[np.ix_(act, bdry)] @ want[bdry]
        want[act] = np.linalg.solve(m2[np.ix_(act, act)], b_act)
        np.testing.assert_allclose(project_initial(system), want, rtol=1e-12)

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
        assert TimeStepperConfig(tau=1e-3, t_end=1.0).num_steps() == 1000
        assert TimeStepperConfig(tau=0.1, t_end=1.0).num_steps() == 10
        with pytest.raises(ValueError, match="positive"):
            TimeStepperConfig(tau=0.0, t_end=1.0).num_steps()
        with pytest.raises(ValueError, match="integer"):
            TimeStepperConfig(tau=0.3, t_end=1.0).num_steps()
        for t_end in (-1.0, 0.0):
            with pytest.raises(ValueError, match="^t_end must be positive$"):
                TimeStepperConfig(tau=0.1, t_end=t_end).num_steps()
        for tau, t_end, match in [
            (np.nan, 1.0, "^tau must be finite"),
            (np.inf, 1.0, "^tau must be finite"),
            (0.1, np.nan, "^t_end must be finite"),
            (0.1, np.inf, "^t_end must be finite"),
            (1e-300, 1e300, "not an integer step count"),  # t_end/tau overflows
        ]:
            with pytest.raises(ValueError, match=match):
                TimeStepperConfig(tau=tau, t_end=t_end).num_steps()

    def test_zero_problem_stays_zero(self):
        mesh = generate_distorted_square_mesh(3, 0.2, seed=2)
        system = assemble(mesh, 2, ZERO_PROBLEM)
        result = run_time_loop(system, TimeStepperConfig(tau=0.1, t_end=1.0))
        assert result.t == pytest.approx(1.0, abs=1e-14)
        assert np.all(result.u == 0.0)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_patch_solution_reproduced(self, k):
        """Solutions linear in time and polynomial in space are captured to
        rounding error: backward Euler is exact and the element contains P_k."""
        problem = polynomial_patch(k)
        mesh = generate_distorted_square_mesh(4, 0.3, seed=0)
        system = assemble(mesh, k, problem)
        result = run_time_loop(system, TimeStepperConfig(tau=0.1, t_end=1.0))

        def exact(x, y):
            return problem.u_exact(x, y, 1.0)

        defect = result.u - interpolate_global(system, exact)
        assert np.max(np.abs(defect)) <= 1e-9

    def test_dirichlet_trace_exact(self):
        mesh = generate_distorted_square_mesh(3, 0.2, seed=5)
        system = assemble(mesh, 2, get_problem("variable"))
        result = run_time_loop(system, TimeStepperConfig(tau=0.25, t_end=1.0))
        bdry = system.dofmap.boundary
        assert np.array_equal(result.u[bdry], dirichlet_values(system, np.array([1.0]))[:, 0])

    def test_single_step_matches_direct_solve(self):
        """One pass through the loop reproduces an independently assembled
        backward-Euler step, confirming the cached factorization path."""
        mesh = generate_voronoi_mesh(16, lloyd_iterations=3, seed=6)
        problem = get_problem("variable")
        system = assemble(mesh, 2, problem)
        tau = 0.5
        result = run_time_loop(system, TimeStepperConfig(tau=tau, t_end=tau))

        dm = system.dofmap
        act, bdry = dm.active, dm.boundary
        u0 = project_initial(system)
        g_mat = (system.m1 + system.m2).tocsr()
        lhs = (g_mat + tau * (system.a + system.b)).tocsr()
        g_b = dirichlet_values(system, np.array([tau]))[:, 0]
        qp = system.quad_points
        load = system.load_map @ problem.f(qp[:, 0], qp[:, 1], tau)
        rhs = (g_mat @ u0)[act] + tau * load[act]
        rhs -= lhs[np.ix_(act, bdry)] @ g_b
        u_act = LinearSolver(lhs[np.ix_(act, act)]).solve(rhs)
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
        g_mat = system.m1 + system.m2
        # every run starts from the projected datum, so the run to n tau
        # gives the state after n steps
        u = project_initial(system)
        energies = [u @ g_mat @ u]
        for n in range(1, 21):
            u = run_time_loop(system, TimeStepperConfig(tau=0.05, t_end=n * 0.05)).u
            energies.append(u @ g_mat @ u)
        assert energies[0] > 0
        diffs = np.diff(energies)
        assert np.all(diffs <= 1e-10 * energies[0])

    def test_bitwise_determinism(self):
        def run():
            mesh = generate_voronoi_mesh(16, lloyd_iterations=3, seed=9)
            system = assemble(mesh, 2, get_problem("variable"))
            return run_time_loop(system, TimeStepperConfig(tau=0.1, t_end=1.0)).u

        assert np.array_equal(run(), run())


def _per_step_loop(system, config):
    """The time loop one step at a time, sampling f and the Dirichlet data
    at 1-D points and a scalar time every step."""
    tau = config.tau
    act, bdry = system.dofmap.active, system.dofmap.boundary
    u = project_initial(system)
    g_mat = system.m1 + system.m2
    lhs = g_mat + tau * (system.a + system.b)
    solver = LinearSolver(lhs[np.ix_(act, act)])
    coupling = lhs[np.ix_(act, bdry)]
    g_act, load_act = g_mat[act], system.load_map[act]
    xq, xb = system.quad_points, system.dofmap.dof_points[bdry]
    for step in range(1, config.num_steps() + 1):
        t_n = step * tau
        f_vals = np.asarray(system.problem.f(xq[:, 0], xq[:, 1], t_n), dtype=float)
        g_bdry = np.asarray(system.problem.dirichlet(xb[:, 0], xb[:, 1], t_n), dtype=float)
        u[act] = solver.solve(g_act @ u + tau * (load_act @ f_vals) - coupling @ g_bdry)
        u[bdry] = g_bdry
    return u


def _sine_in_space(x, y, t):  # no t: shape (n, 1) at (n, 1) points
    return np.sin(3.0 * x) * np.cos(2.0 * y)


BLOCK_CASES = {
    "variable-distorted": lambda: assemble(
        generate_distorted_square_mesh(3, 0.3, seed=4), 2, get_problem("variable")),
    "gaussian-hanging": lambda: assemble(GROUP_MESHES["hanging"](), 1, get_problem("gaussian")),
    "t-free-f-zero-dirichlet": lambda: assemble(generate_distorted_square_mesh(3, 0.3, seed=4), 2,
                                                dataclasses.replace(ZERO_PROBLEM, f=_sine_in_space)),
}


class TestBlockedTimeLoop:
    """``run_time_loop`` samples f and the Dirichlet data once per block of
    B = max(1, BLOCK_VALUES // load points) steps."""

    @pytest.mark.parametrize("block", [None, 3, 1], ids=["one-block", "B=3", "B=1"])
    @pytest.mark.parametrize("case", list(BLOCK_CASES))
    def test_matches_per_step_loop_bitwise(self, case, block, monkeypatch):
        system = BLOCK_CASES[case]()
        assert len(system.coefficient_notes) == case.startswith("variable")
        n_points = len(system.quad_points)
        if block is None:
            assert system_module.BLOCK_VALUES // n_points >= 10  # all 10 steps in one block
        else:
            monkeypatch.setattr(system_module, "BLOCK_VALUES", block * n_points + n_points - 1)
        calls, f = [], system.problem.f

        def counted(x, y, t):
            calls.append(np.shape(t))
            return f(x, y, t)

        config = TimeStepperConfig(tau=0.1, t_end=1.0)
        want = _per_step_loop(system, config)
        system.problem = dataclasses.replace(system.problem, f=counted)
        got = run_time_loop(system, config).u
        assert got.tobytes() == want.tobytes()
        sizes = {None: [(1, 10)], 3: [(1, 3)] * 3 + [(1, 1)], 1: [(1, 1)] * 10}[block]
        assert calls == sizes  # ceil(10 / B) calls, the last block partial

    @pytest.mark.parametrize("field", ["f", "dirichlet"])
    @pytest.mark.parametrize("square", [False, True], ids=["n!=B", "n==B"])
    def test_one_dimensional_sample_rejected(self, field, square, monkeypatch):
        """A value of shape (n,) would broadcast along the time axis when
        n == B, so any shape but (n, 1) or (n, B) is named and rejected."""
        system = assemble(unit_square_mesh(), 1, ZERO_PROBLEM)
        n = len(system.quad_points if field == "f" else system.dofmap.boundary)
        steps = n if square else 2
        monkeypatch.setattr(system_module, "BLOCK_VALUES", steps * len(system.quad_points))

        def flat(x, y, t):
            return np.zeros(len(x))

        system.problem = dataclasses.replace(ZERO_PROBLEM, **{field: flat})
        with pytest.raises(ValueError, match=rf"^problem\.{field} must broadcast over t .* "
                                             rf"got \({n},\)$"):
            run_time_loop(system, TimeStepperConfig(tau=0.1, t_end=0.1 * steps))

    def test_dirichlet_values_block_matches_one_time_blocks(self):
        system = assemble(generate_distorted_square_mesh(3, 0.2, seed=5), 2,
                          get_problem("convection"))
        times = np.arange(1, 4) * 0.25
        block = dirichlet_values(system, times)
        assert block.shape == (len(system.dofmap.boundary), 3)
        for j, t in enumerate(times):
            one = dirichlet_values(system, np.array([t]))
            assert one.shape == (len(system.dofmap.boundary), 1)
            assert one[:, 0].tobytes() == np.ascontiguousarray(block[:, j]).tobytes()


# ---------------------------------------------------------------------------
# problem fields
# ---------------------------------------------------------------------------


def _solve_and_measure(problem):
    """Assemble, step and measure the errors on a small distorted mesh."""
    system = assemble(generate_distorted_square_mesh(3, 0.2, seed=0), 1, problem)
    result = run_time_loop(system, TimeStepperConfig(tau=0.5, t_end=0.5))
    return result.u, compute_errors(system, result.u, result.t)


def _ones(*tail):
    return lambda x, y, *t: np.ones(np.shape(x) + tail)


_GAUSSIAN = get_problem("gaussian")


class TestProblemFieldShapes:
    """A field of the wrong shape is refused where the package samples it,
    with a ``ValueError`` that names the field, the shape it must give and
    the shape it gave."""

    @pytest.mark.parametrize("field, value, want, got", [
        ("mu", _ones(), r"\(N, 2, 2\)", r"\(N,\)"),
        ("eps", _ones(2), r"\(N, 2, 2\)", r"\(N, 2\)"),
        ("beta", _ones(), r"\(N, 2\)", r"\(N,\)"),
        ("beta", _ones(2, 2), r"\(N, 2\)", r"\(N, 2, 2\)"),
        ("gamma", _ones(2), r"\(N,\) or \(\)", r"\(N, 2\)"),
        ("div_beta", _ones(1), r"\(N,\) or \(\)", r"\(N, 1\)"),
        ("grad_u0", _ones(), r"\(N, 2\)", r"\(N,\)"),
        ("grad_u0", _ones(3), r"\(N, 2\)", r"\(N, 3\)"),
        ("u0", _ones(1), r"\(N,\) or \(\)", r"\(N, 1\)"),
        ("u_exact", lambda x, y, t: _GAUSSIAN.u_exact(x, y, t)[:, None], r"\(N,\) or \(\)",
         r"\(N, 1\)"),
        ("grad_u_exact", lambda x, y, t: _GAUSSIAN.grad_u_exact(x, y, t)[:, None],
         r"\(N, 2\)", r"\(N, 1, 2\)"),
    ], ids=["mu-n", "eps-n2", "beta-n", "beta-n22", "gamma-n2", "div_beta-n1", "grad_u0-n",
            "grad_u0-n3", "u0-n1", "u_exact-n1", "grad_u_exact-n12"])
    def test_wrong_shape_is_named(self, field, value, want, got):
        problem = dataclasses.replace(_GAUSSIAN, **{field: value})
        n = r"(\d+)"
        message = (rf"^problem\.{field} must give shape {want} for x and y of shape \(N,\), "
                   rf"got {got}$").replace("N", n, 1).replace("N", r"\1")
        with pytest.raises(ValueError, match=message):
            _solve_and_measure(problem)

    @pytest.mark.parametrize("field, value, when", [
        ("grad_u0", lambda x, y: np.full(np.shape(x) + (2,), np.nan), ""),
        ("u0", lambda x, y: np.full(np.shape(x), np.nan), ""),
        ("f", lambda x, y, t: np.full(np.shape(x), np.nan), ", t = 0.5"),
        ("dirichlet", lambda x, y, t: np.full(np.shape(x), np.inf), ", t = 0.5"),
        ("u_exact", lambda x, y, t: np.full(np.shape(x), np.nan), ", t = 0.5"),
        ("grad_u_exact", lambda x, y, t: np.full(np.shape(x) + (2,), np.nan), ", t = 0.5"),
    ], ids=["grad_u0", "u0", "f", "dirichlet", "u_exact", "grad_u_exact"])
    def test_non_finite_initial_datum_is_named(self, field, value, when):
        """A value that is not finite is named with its field and point, and
        with its time for f, the Dirichlet data and the exact solution."""
        problem = dataclasses.replace(_GAUSSIAN, **{field: value})
        with pytest.raises(CoefficientError,
                           match=rf"^{field} is not finite at \(\S+, \S+\){when}$"):
            _solve_and_measure(problem)

    def test_first_bad_time_then_point_is_named(self):
        """f is sampled for a block of times at once; the message names the
        earliest time with a value that is not finite, and its first point."""
        points = np.array([[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]])
        bad = dataclasses.replace(
            _GAUSSIAN, f=lambda x, y, t: np.where((x > 0.2) & (t > 0.15), np.nan, x + t))
        with pytest.raises(CoefficientError, match=r"^f is not finite at \(0\.3, 0\.4\), t = 0\.2$"):
            sample(bad, "f", points, np.array([0.1, 0.2, 0.3]))
        np.testing.assert_array_equal(sample(_GAUSSIAN, "dirichlet", points, np.array([0.0])),
                                      np.zeros((3, 1)))

    @pytest.mark.parametrize("value, message", [
        (_ones(1), r"^problem\.u0 must give shape \((\d+),\) or \(\) for x and y of shape "
                   r"\(\1,\), got \(\1, 1\)$"),
        (lambda x, y: np.full(np.shape(x), np.nan), r"^u0 is not finite at \(\S+, \S+\)$"),
    ], ids=["shape", "non-finite"])
    def test_interpolated_initial_datum_is_checked(self, value, message):
        """Without grad_u0 the initial value is interpolated, from a checked u0."""
        with pytest.raises(ValueError, match=message):
            _solve_and_measure(dataclasses.replace(_GAUSSIAN, u0=value, grad_u0=None))

    def test_one_value_of_a_scalar_field_stands_for_all_points(self):
        plain_u, plain = _solve_and_measure(_GAUSSIAN)
        scalar = dataclasses.replace(_GAUSSIAN, gamma=lambda x, y: 1.0, u0=lambda x, y: 0.0)
        u, pair = _solve_and_measure(scalar)
        assert u.tobytes() == plain_u.tobytes()
        assert (pair.e0, pair.e1) == (plain.e0, plain.e1)


# ---------------------------------------------------------------------------
# snapshots
# ---------------------------------------------------------------------------


class TestSnapshots:
    def _solved(self):
        mesh = generate_distorted_square_mesh(3, 0.2, seed=4)
        system = assemble(mesh, 2, get_problem("variable"))
        result = run_time_loop(system, TimeStepperConfig(tau=0.5, t_end=1.0))
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

    def test_rows_equal_cell_views_bitwise(self):
        """On a mesh of several cell groups every row is, bit for bit, the
        per-cell view's pi0 times the cell's dofs, in cell order."""
        mesh = GROUP_MESHES["hanging"]()
        system = assemble(mesh, 2, get_problem("variable"))
        result = run_time_loop(system, TimeStepperConfig(tau=0.5, t_end=1.0))
        assert len(system.groups) > 1
        _, _, _, coeffs = solution_from_string(solution_to_string(system, result))
        for ci, el in enumerate(system.elements):
            want = el.pi0_star @ result.u[system.dofmap.cell_dofs(ci)]
            assert np.array_equal(coeffs[ci], want)

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

    @pytest.mark.parametrize(
        "line, token", [("time", "nan"), ("dof", "nan"), ("dof", "-inf"), ("coefficient", "inf")]
    )
    def test_non_finite_value_names_its_line(self, line, token):
        lines, n = self._lines()
        at = {"time": 2, "dof": 5, "coefficient": 6 + n}[line]
        lines[at] = " ".join(lines[at].split()[:-1] + [token])
        with pytest.raises(ValueError, match=f"^line {at + 1}: non-finite value$"):
            solution_from_string("\n".join(lines))

    def test_bad_cell_count_names_its_line(self):
        lines, n = self._lines()
        lines[4 + n] = "cells many"
        with pytest.raises(ValueError, match=f"line {5 + n}: bad number"):
            solution_from_string("\n".join(lines))

    def test_missing_cells_line_named(self):
        """A complete dof block followed by end of file names the missing
        ``cells`` line itself."""
        lines, n = self._lines()
        with pytest.raises(ValueError, match=f"^line {5 + n}: expected 'cells <value>'$"):
            solution_from_string("\n".join(lines[: 4 + n]))

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

    def test_non_ascii_byte_names_its_line(self, tmp_path):
        lines, _ = self._lines()
        lines[5] = lines[5] + "\xe9"
        path = tmp_path / "state.sol"
        path.write_bytes("\n".join(lines).encode("latin-1"))
        with pytest.raises(ValueError, match="^line 6: bad number"):
            read_solution(path)


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

"""Tests for error measurement, EOC computation, sweeps, and adaptivity.

The EOC regression tests freeze the reference tables in benchmarks.py as
oracles: recomputing the published EOC columns from the published error
and mesh-size columns must reproduce them to table precision, which pins
the EOC convention (consecutive-pair log ratios) independently of the
solver.
"""

import math

import numpy as np
import pytest

import polyvem.analysis as A
from polyvem.analysis import (
    AdaptiveStudy,
    ConvergenceRecord,
    ErrorPair,
    compute_eoc,
    compute_errors,
    dorfler_marking,
    error_indicators,
    family_mesh,
    least_squares_slope,
    matched_dof_comparison,
    record_to_csv,
    run_adaptive_study,
    run_convergence_sweep,
)
from polyvem.mesh import (
    PolyMesh,
    generate_distorted_square_mesh,
    generate_voronoi_mesh,
    refine_cells,
)
from polyvem.problems import get_problem
from polyvem.quadrature import map_to_triangle, triangle_rule
from polyvem.system import (
    TimeStepperConfig,
    assemble,
    interpolate_global,
    run_time_loop,
)

import benchmarks
from manufactured import polynomial_patch


def perturbed_interpolant(family, k, problem):
    """A system on a mixed mesh and a dof vector near the exact solution:
    its interpolant at t = 1 plus a fixed perturbation."""
    if family == "voronoi":
        mesh = generate_voronoi_mesh(30, lloyd_iterations=2, seed=3)
    else:
        mesh = refine_cells(generate_distorted_square_mesh(4, 0.2, seed=1), [2, 9])
    system = assemble(mesh, k, problem)
    u = interpolate_global(system, lambda x, y: problem.u_exact(x, y, 1.0))
    return system, u + 1e-3 * np.sin(np.arange(len(u)))


# ---------------------------------------------------------------------------
# ErrorPair / ConvergenceRecord containers
# ---------------------------------------------------------------------------


class TestErrorPair:
    def test_accepts_zero_errors(self):
        pair = ErrorPair(h=0.1, e0=0.0, e1=0.0, num_dofs=9, num_active=1)
        assert pair.e0 == 0.0

    @pytest.mark.parametrize("bad", [-1e-3, float("nan"), float("inf")])
    def test_rejects_invalid_e0(self, bad):
        with pytest.raises(ValueError):
            ErrorPair(h=0.1, e0=bad, e1=0.0, num_dofs=9, num_active=1)

    @pytest.mark.parametrize("bad", [-1e-3, float("nan")])
    def test_rejects_invalid_e1(self, bad):
        with pytest.raises(ValueError):
            ErrorPair(h=0.1, e0=0.0, e1=bad, num_dofs=9, num_active=1)

    def test_record_arrays(self):
        rec = ConvergenceRecord(family="f", k=2, pairs=[])
        rec.pairs.append(ErrorPair(h=0.5, e0=1.0, e1=2.0, num_dofs=10, num_active=4))
        rec.pairs.append(ErrorPair(h=0.25, e0=0.25, e1=1.0, num_dofs=30, num_active=20))
        assert np.allclose(rec.h, [0.5, 0.25])
        assert np.allclose(rec.e0, [1.0, 0.25])
        assert np.allclose(rec.e1, [2.0, 1.0])
        assert [p.num_dofs for p in rec.pairs] == [10, 30]
        assert rec.active_dofs.tolist() == [4, 20]
        assert compute_eoc(rec.h, rec.e0)[1] == pytest.approx(2.0)
        assert compute_eoc(rec.h, rec.e1)[1] == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# error measurement
# ---------------------------------------------------------------------------


class TestComputeErrors:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_polynomial_solution_measured_as_zero(self, k):
        """Interpolating t*p with p in P_k gives projections equal to p, so
        both error surrogates must vanish to quadrature/rounding precision."""
        problem = polynomial_patch(k)
        mesh = generate_distorted_square_mesh(4, 0.25, seed=3)
        system = assemble(mesh, k, problem)
        t = 1.0
        u = interpolate_global(system, lambda x, y: problem.u_exact(x, y, t))
        pair = compute_errors(system, u, t)
        assert pair.e0 <= 1e-11
        assert pair.e1 <= 1e-10

    def test_zero_vector_measures_solution_norm(self):
        """With u_h = 0 the surrogates reduce to ||u(t)|| and ||grad u(t)||."""
        problem = get_problem("variable")
        mesh = generate_distorted_square_mesh(6, 0.0, seed=0)
        system = assemble(mesh, 1, problem)
        pair = compute_errors(system, np.zeros(system.dofmap.size), 1.0)
        # u = t sin(pi x) sin(pi y): ||u(1)|| = 1/2, |u(1)|_1 = pi/sqrt(2)
        assert pair.e0 == pytest.approx(0.5, rel=1e-12)
        assert pair.e1 == pytest.approx(np.pi / np.sqrt(2.0), rel=1e-12)

    def test_requires_exact_solution(self):
        problem = get_problem("variable")
        stripped = type(problem)(
            **{
                **{f: getattr(problem, f) for f in problem.__dataclass_fields__},
                "u_exact": None,
                "grad_u_exact": None,
            }
        )
        mesh = generate_distorted_square_mesh(2, 0.0, seed=0)
        system = assemble(mesh, 1, stripped)
        with pytest.raises(ValueError, match="exact solution"):
            compute_errors(system, np.zeros(system.dofmap.size), 1.0)

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("family", ["voronoi", "hanging"])
    def test_matches_per_cell_reference(self, family, k):
        """The group-wise errors equal a cell-by-cell evaluation through the
        per-cell element views, up to summation order."""
        problem = get_problem("variable")
        system, u = perturbed_interpolant(family, k, problem)
        nk, nk1 = (k + 1) * (k + 2) // 2, k * (k + 1) // 2
        e0_sq = e1_sq = 0.0
        for ci, el in enumerate(system.elements):
            pts, w = map_to_triangle(triangle_rule(2 * k + 4), el.geom.triangles)
            vals = el.basis.eval(pts)
            ud = u[system.dofmap.cell_dofs(ci)]
            u_e = problem.u_exact(pts[:, 0], pts[:, 1], 1.0)
            g_e = problem.grad_u_exact(pts[:, 0], pts[:, 1], 1.0)
            e0_sq += w @ (u_e - vals[:, :nk] @ (el.pi0_star @ ud)) ** 2
            for axis in range(2):
                g_h = vals[:, :nk1] @ (el.pi0_grad_star[axis] @ ud)
                e1_sq += w @ (g_e[:, axis] - g_h) ** 2
        pair = compute_errors(system, u, 1.0)
        assert pair.e0 == pytest.approx(math.sqrt(e0_sq), rel=1e-12)
        assert pair.e1 == pytest.approx(math.sqrt(e1_sq), rel=1e-12)

    def test_metadata_fields(self):
        problem = get_problem("variable")
        mesh = generate_distorted_square_mesh(3, 0.0, seed=0)
        system = assemble(mesh, 2, problem)
        pair = compute_errors(system, np.zeros(system.dofmap.size), 1.0)
        assert pair.h == system.mesh.h
        assert pair.num_dofs == system.dofmap.size
        assert pair.num_active == len(system.dofmap.active)
        assert pair.seconds == 0.0


def _errors_at_t1(mesh, k):
    problem = get_problem("variable")
    system = assemble(mesh, k, problem)
    result = run_time_loop(system, TimeStepperConfig(tau=1e-2, t_end=1.0))
    pair = compute_errors(system, result.u, result.t)
    return pair.e0, pair.e1


class TestRenumberingInvariance:
    """The discretization depends on the cells, not on how the mesh numbers
    its cells and vertices (each loop keeps its first vertex)."""

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("family", ["distorted", "concave", "voronoi", "hanging"])
    def test_permuted_mesh_gives_same_errors(self, family, k):
        if family == "hanging":
            mesh = refine_cells(generate_distorted_square_mesh(4, 0.2, seed=1), [2, 9])
        else:
            mesh = family_mesh(family, 0)
        rng = np.random.default_rng(k)
        cell_order = rng.permutation(mesh.num_cells)
        vertex_order = rng.permutation(mesh.num_vertices)
        new_index = np.argsort(vertex_order)
        loops = [new_index[mesh.cells[c]] for c in cell_order]
        permuted = PolyMesh(mesh.vertices[vertex_order], loops)
        np.testing.assert_allclose(_errors_at_t1(permuted, k), _errors_at_t1(mesh, k), rtol=1e-10)


# ---------------------------------------------------------------------------
# EOC and slope computation
# ---------------------------------------------------------------------------


class TestComputeEoc:
    def test_exact_halving_power_law(self):
        h = np.array([0.4, 0.2, 0.1, 0.05])
        errors = 3.0 * h**2
        eoc = compute_eoc(h, errors)
        assert np.isnan(eoc[0])
        assert np.allclose(eoc[1:], 2.0, atol=1e-13)

    def test_reproduces_published_eoc_from_published_errors(self):
        """The first EOC of the order-1 Voronoi ladder follows from its own
        error and mesh-size columns; getting 2.3294 back to 4 decimals pins
        the consecutive-pair convention."""
        table = benchmarks.VARIABLE_VORONOI
        eoc = compute_eoc(table["h"], table[1]["e0"])
        assert eoc[1] == pytest.approx(2.3294, abs=5e-4)

    def test_reproduces_ratio_two_ladder_eoc(self):
        """The deterministic concave ladder halves h exactly; the published
        EOC column is only reproduced with the exact ratio-2 sizes (the
        printed, rounded sizes give 3.7391)."""
        table = benchmarks.VARIABLE_CONCAVE
        eoc = compute_eoc(table["h"], table[3]["e0"])
        assert eoc[1] == pytest.approx(3.7403, abs=5e-4)

    def test_rejects_non_decreasing_h(self):
        with pytest.raises(ValueError, match="strictly decreasing"):
            compute_eoc([0.2, 0.2, 0.1], [1.0, 0.5, 0.25])

    def test_rejects_single_level(self):
        with pytest.raises(ValueError):
            compute_eoc([0.2], [1.0])

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            compute_eoc([0.4, 0.2, 0.1], [1.0, 0.5])


def _eoc_matches(h, errors, published, atol=1e-4):
    """Count published EOC entries reproduced from the published errors.

    Rows whose error value is recorded as None (misprints) invalidate both
    adjacent ratios, so those EOC positions are skipped.
    """
    matched = 0
    checked = 0
    for i, ref in enumerate(published):
        if ref is None:
            continue
        e_prev, e_cur = errors[i], errors[i + 1]
        if e_prev is None or e_cur is None:
            continue
        checked += 1
        got = math.log(e_prev / e_cur) / math.log(h[i] / h[i + 1])
        if abs(got - ref) <= atol:
            matched += 1
    return matched, checked


class TestTableSelfConsistency:
    """The reference tables must be internally consistent: recomputing the
    EOC columns from the error columns reproduces them to table precision.
    This validates the frozen tables (and the exact ratio-2 concave ladder)
    before any solver output is compared against them."""

    def test_at_least_six_entries_reproduce_to_1e4(self):
        total = 0
        for table in (benchmarks.VARIABLE_VORONOI, benchmarks.VARIABLE_CONCAVE):
            for k in (1, 2, 3):
                for err_key, eoc_key in (("e0", "eoc0"), ("e1", "eoc1")):
                    matched, _ = _eoc_matches(
                        table["h"], table[k][err_key], table[k][eoc_key]
                    )
                    total += matched
        assert total >= 6

    def test_every_entry_reproduces_within_rounding_noise(self):
        """Errors are printed to 4 significant digits, so a recomputed
        ratio-2 EOC can deviate by up to ~1.5e-3 from the printed one; a
        handful of entries exceed even that (5th-digit slips), but nothing
        approaches the size of the marked misprints."""
        for table in benchmarks.TABLES.values():
            for k in (1, 2, 3):
                for err_key, eoc_key in (("e0", "eoc0"), ("e1", "eoc1")):
                    matched, checked = _eoc_matches(
                        table["h"], table[k][err_key], table[k][eoc_key], atol=7e-3
                    )
                    assert matched == checked

    def test_deterministic_ladder_reproduces_to_5e4(self):
        """The concave ladder is deterministic with exact ratio-2 sizes, so
        its EOC column reproduces far inside the rounding-noise bound."""
        table = benchmarks.VARIABLE_CONCAVE
        for k in (1, 2, 3):
            for err_key, eoc_key in (("e0", "eoc0"), ("e1", "eoc1")):
                matched, checked = _eoc_matches(
                    table["h"], table[k][err_key], table[k][eoc_key], atol=5e-4
                )
                assert matched == checked

    def test_misprints_are_marked(self):
        """The entries recorded as None are exactly the ones inconsistent
        with their neighbours' EOC columns."""
        assert benchmarks.VARIABLE_CONCAVE[1]["e0"][0] is None
        assert benchmarks.VARIABLE_CONCAVE[1]["e0"][-1] is None
        assert benchmarks.VARIABLE_DISTORTED[1]["e0"][0] is None
        assert benchmarks.CONVECTION_VORONOI[1]["e1"][-1] is None


class TestLeastSquaresSlope:
    def test_exact_power_law(self):
        h = np.array([0.8, 0.31, 0.17, 0.052])  # irregular ladder
        errors = 2.7 * h**1.75
        assert least_squares_slope(h, errors) == pytest.approx(1.75, abs=1e-12)

    def test_averages_noise(self):
        h = np.array([0.4, 0.2, 0.1, 0.05])
        errors = h**2 * np.array([1.1, 0.9, 1.05, 0.95])
        slope = least_squares_slope(h, errors)
        assert slope == pytest.approx(2.0, abs=0.15)

    def test_rejects_single_point(self):
        with pytest.raises(ValueError):
            least_squares_slope([0.1], [1.0])


# ---------------------------------------------------------------------------
# mesh ladders
# ---------------------------------------------------------------------------


class TestFamilyMesh:
    def test_distorted_cell_counts_double_per_level(self):
        for level, n in enumerate((5, 10, 20)):
            mesh = family_mesh("distorted", level)
            assert mesh.num_cells == n * n

    def test_distorted_levels_use_distinct_seeds(self):
        a = family_mesh("distorted", 1, seed=0)
        b = family_mesh("distorted", 1, seed=5)
        assert not np.allclose(a.vertices, b.vertices)

    def test_concave_levels(self):
        mesh = family_mesh("concave", 0)
        assert mesh.num_cells == 2 * 2 * 2  # n=2 squares, each cut in two
        ratio = family_mesh("concave", 0).h / family_mesh("concave", 1).h
        assert ratio == pytest.approx(2.0, rel=1e-12)

    def test_voronoi_level_bound(self):
        with pytest.raises(ValueError, match="levels"):
            family_mesh("voronoi", len(A.VORONOI_LEVEL_SEEDS))

    @pytest.mark.parametrize("family", A.MESH_FAMILIES)
    def test_negative_level_rejected(self, family):
        with pytest.raises(ValueError, match="level must be non-negative, got -1"):
            family_mesh(family, -1)

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown mesh family"):
            family_mesh("triangles", 0)


# ---------------------------------------------------------------------------
# error indicators and marking
# ---------------------------------------------------------------------------


class TestErrorIndicators:
    def test_vanish_on_polynomial_solution(self):
        """Both indicator terms measure departure from P_k, so an exact
        polynomial solution must register (near) zero on every cell."""
        problem = polynomial_patch(2)
        mesh = generate_voronoi_mesh(30, lloyd_iterations=2, seed=1)
        system = assemble(mesh, 2, problem)
        u = interpolate_global(system, lambda x, y: problem.u_exact(x, y, 1.0))
        eta = error_indicators(system, u)
        assert eta.shape == (mesh.num_cells,)
        assert np.all(eta <= 1e-10)

    def test_positive_on_transcendental_solution(self):
        problem = get_problem("variable")
        mesh = generate_distorted_square_mesh(4, 0.2, seed=0)
        system = assemble(mesh, 1, problem)
        u = interpolate_global(system, lambda x, y: problem.u_exact(x, y, 1.0))
        eta = error_indicators(system, u)
        assert np.all(eta > 0)

    def test_concentrate_on_gaussian_bump(self):
        """The gaussian problem's solution varies only near (1/2, 1/2); the
        largest indicator must sit on a cell near the bump."""
        problem = get_problem("gaussian")
        mesh = generate_distorted_square_mesh(8, 0.0, seed=0)
        system = assemble(mesh, 1, problem)
        u = interpolate_global(system, lambda x, y: problem.u_exact(x, y, 1.0))
        eta = error_indicators(system, u)
        top = int(np.argmax(eta))
        cx, cy = system.elements[top].geom.centroid
        assert math.hypot(cx - 0.5, cy - 0.5) < 0.3


    @pytest.mark.parametrize("family", ["voronoi", "hanging"])
    def test_matches_per_cell_reference(self, family):
        problem = get_problem("gaussian")
        system, u = perturbed_interpolant(family, 2, problem)
        want = []
        for ci, el in enumerate(system.elements):
            x, y = el.geom.centroid[:, None]
            eps_k = 0.5 * np.trace(problem.eps(x, y)[0])
            sigma_k = max(problem.sigma(x, y)[0], 0.0)
            ud = u[system.dofmap.cell_dofs(ci)]
            diff = el.pi0_star @ ud - el.pi_grad_star @ ud
            q_u = el.stab_q @ ud
            stab_sq = (eps_k + sigma_k * el.geom.area) * (q_u @ q_u)
            want.append(math.sqrt(diff @ el.mass_monomials @ diff) + math.sqrt(stab_sq))
        np.testing.assert_allclose(error_indicators(system, u), want, rtol=1e-12)


class TestDorflerMarking:
    def test_dominant_cell_marked_alone(self):
        eta = np.array([1e-6, 10.0, 1e-6, 1e-6])
        assert dorfler_marking(eta, theta=0.5).tolist() == [1]

    def test_theta_one_marks_all_contributing(self):
        eta = np.array([1.0, 2.0, 3.0])
        assert dorfler_marking(eta, theta=1.0).tolist() == [0, 1, 2]

    def test_minimal_set_property(self):
        """The marked set is the smallest prefix of the sorted indicators
        reaching the theta fraction of the total squared indicator."""
        eta = np.array([3.0, 1.0, 2.0, 1.0])
        marked = dorfler_marking(eta, theta=0.5)
        eta_sq = eta**2
        assert eta_sq[marked].sum() >= 0.5 * eta_sq.sum()
        # dropping the weakest marked cell falls below the fraction
        weakest = marked[np.argmin(eta_sq[marked])]
        rest = [i for i in marked if i != weakest]
        assert eta_sq[rest].sum() < 0.5 * eta_sq.sum()

    def test_zero_indicators_mark_nothing(self):
        assert dorfler_marking(np.zeros(5), theta=0.3).size == 0

    @pytest.mark.parametrize("theta", [0.0, -0.1, 1.5])
    def test_invalid_theta(self, theta):
        with pytest.raises(ValueError, match="fraction"):
            dorfler_marking(np.ones(3), theta=theta)


# ---------------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------------


def _make_record(hs, e0s, e1s, k=1, seconds=0.0):
    rec = ConvergenceRecord(family="f", k=k, pairs=[])
    for h, e0, e1 in zip(hs, e0s, e1s):
        rec.pairs.append(
            ErrorPair(h=h, e0=e0, e1=e1, num_dofs=10, num_active=5, seconds=seconds)
        )
    return rec


class TestCsvOutput:
    def test_header_and_column_layout(self):
        rec = _make_record([0.5, 0.25], [1e-2, 2.5e-3], [0.1, 0.05], k=2, seconds=1.5)
        lines = record_to_csv(rec).strip().split("\n")
        assert lines[0] == "k,h,dofs,E0h,EOC0,E1h,EOC1,seconds"
        first = lines[1].split(",")
        assert first[0] == "2"
        assert first[1] == "5.000000e-01"
        assert first[2] == "10"
        assert first[3] == "1.000000e-02"
        assert first[4] == ""  # no EOC on the first row
        assert first[6] == ""
        assert first[7] == "1.500"
        second = lines[2].split(",")
        assert second[4] == "2.0000"
        assert second[6] == "1.0000"

    def test_single_level_has_blank_eoc(self):
        rec = _make_record([0.5], [1e-2], [0.1])
        lines = record_to_csv(rec).strip().split("\n")
        assert len(lines) == 2
        assert lines[1].split(",")[4] == ""
        assert record_to_csv(_make_record([], [], [])) == lines[0] + "\n"

    def test_non_decreasing_h_blanks_eoc(self):
        """Locally refined ladders can keep the same max diameter; the EOC
        columns stay blank rather than reporting a 0/0 rate."""
        rec = _make_record([0.5, 0.5, 0.5], [1e-2, 5e-3, 2e-3], [0.1, 0.07, 0.04])
        lines = record_to_csv(rec).strip().split("\n")
        for line in lines[1:]:
            cols = line.split(",")
            assert cols[4] == "" and cols[6] == ""


# ---------------------------------------------------------------------------
# matched-dof comparison
# ---------------------------------------------------------------------------


class TestMatchedDofComparison:
    def _study(self, uniform_pts, adaptive_pts):
        def rec(family, pts):
            r = ConvergenceRecord(family=family, k=1, pairs=[])
            for n, e in pts:
                r.pairs.append(
                    ErrorPair(h=0.1, e0=e, e1=e, num_dofs=n, num_active=n)
                )
            return r

        return AdaptiveStudy(
            uniform=rec("uniform", uniform_pts),
            adaptive=rec("adaptive", adaptive_pts),
            final_mesh=None,
        )

    def test_interpolates_on_log_log_line(self):
        # uniform error 100/n: at n=40 the interpolated value must be 2.5
        study = self._study([(10, 10.0), (160, 0.625)], [(40, 1.0)])
        rows = matched_dof_comparison(study)
        assert len(rows) == 1
        dofs, e_adapt, e_unif = rows[0]
        assert dofs == 40
        assert e_adapt == 1.0
        assert e_unif == pytest.approx(2.5, rel=1e-12)

    def test_skips_points_outside_uniform_range(self):
        study = self._study([(10, 10.0), (160, 0.625)], [(5, 1.0), (500, 0.1)])
        assert matched_dof_comparison(study) == []

    def test_empty_for_single_uniform_point(self):
        study = self._study([(10, 10.0)], [(10, 1.0)])
        assert matched_dof_comparison(study) == []


# ---------------------------------------------------------------------------
# convergence sweeps (solver in the loop)
# ---------------------------------------------------------------------------


class TestSweeps:
    def test_polynomial_sweep_is_exact_everywhere(self):
        """A short real sweep on the patch problem: every level reports
        machine-size errors, and the record carries coherent metadata."""
        rec = run_convergence_sweep(
            polynomial_patch(1), "distorted", 1, levels=2, tau=0.25, t_end=1.0, seed=0
        )
        assert rec.k == 1 and rec.family == "distorted"
        assert len(rec.pairs) == 2
        assert np.all(rec.e0 < 1e-9)
        assert rec.h[0] > rec.h[1]
        assert rec.pairs[1].num_dofs > rec.pairs[0].num_dofs

    def test_rejects_zero_levels(self):
        with pytest.raises(ValueError, match="levels"):
            run_convergence_sweep(get_problem("variable"), "distorted", 1, levels=0, tau=1e-3,
                                  t_end=1.0, seed=0)

    def test_ladder_too_shallow_refused_before_any_mesh(self, monkeypatch):
        """A sweep deeper than the Voronoi ladder fails before it solves
        the levels that do exist."""
        built = []
        monkeypatch.setattr(A, "generate_voronoi_mesh", lambda *args, **kw: built.append(args))
        with pytest.raises(ValueError, match="^voronoi ladder defines 6 levels$"):
            run_convergence_sweep(get_problem("gaussian"), "voronoi", 1, levels=7, tau=0.5,
                                  t_end=0.5, seed=0)
        assert built == []

    def test_non_integer_thread_count_named(self, monkeypatch):
        monkeypatch.setenv("POLYVEM_THREADS", "two")
        with pytest.raises(ValueError, match="^POLYVEM_THREADS must be an integer, got 'two'$"):
            run_convergence_sweep(get_problem("variable"), "distorted", 1, levels=1, tau=1e-3,
                                  t_end=1.0, seed=0)

    def test_thread_count_does_not_change_results(self, monkeypatch):
        problem = polynomial_patch(2)
        monkeypatch.setenv("POLYVEM_THREADS", "1")
        serial = run_convergence_sweep(problem, "distorted", 2, levels=2, tau=0.5, t_end=1.0,
                                      seed=0)
        monkeypatch.setenv("POLYVEM_THREADS", "2")
        threaded = run_convergence_sweep(problem, "distorted", 2, levels=2, tau=0.5, t_end=1.0,
                                      seed=0)
        assert np.array_equal(serial.h, threaded.h)
        assert np.array_equal(serial.e0, threaded.e0)
        assert np.array_equal(serial.e1, threaded.e1)

    @pytest.mark.slow
    def test_variable_distorted_order1_rates(self, sweep_cache):
        rec = sweep_cache("variable", "distorted", 1)
        assert least_squares_slope(rec.h, rec.e0) == pytest.approx(2.0, abs=0.25)
        assert least_squares_slope(rec.h, rec.e1) == pytest.approx(1.0, abs=0.25)

    @pytest.mark.slow
    def test_variable_concave_order2_rates(self, sweep_cache):
        rec = sweep_cache("variable", "concave", 2)
        assert least_squares_slope(rec.h, rec.e0) == pytest.approx(3.0, abs=0.25)
        assert least_squares_slope(rec.h, rec.e1) == pytest.approx(2.0, abs=0.25)

    @pytest.mark.slow
    def test_convection_concave_order3_rates(self, sweep_cache):
        rec = sweep_cache("convection", "concave", 3)
        assert least_squares_slope(rec.h, rec.e0) == pytest.approx(4.0, abs=0.3)
        assert least_squares_slope(rec.h, rec.e1) == pytest.approx(3.0, abs=0.3)

    @pytest.mark.slow
    def test_errors_decrease_monotonically(self, sweep_cache):
        for family in ("distorted", "concave"):
            rec = sweep_cache("variable", family, 2)
            assert np.all(np.diff(rec.e0) < 0)
            assert np.all(np.diff(rec.e1) < 0)

    @pytest.mark.slow
    def test_higher_order_is_more_accurate(self, sweep_cache):
        """At the finest common level, each order beats the one below it."""
        finest = [sweep_cache("variable", "concave", k).e0[-1] for k in (1, 2, 3)]
        assert finest[1] < finest[0]
        assert finest[2] < finest[1]


# ---------------------------------------------------------------------------
# adaptive study (cheap protocol; the full one runs in the acceptance suite)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def quick_adaptive_study():
    return run_adaptive_study(
        get_problem("gaussian"), k=1, cycles=4, start_n=8, theta=0.3, tau=0.1, t_end=1.0
    )


class TestAdaptiveStudy:
    def test_refinement_grows_dofs(self, quick_adaptive_study):
        active = quick_adaptive_study.adaptive.active_dofs
        assert len(active) == 4
        assert np.all(np.diff(active) > 0)

    def test_refinement_concentrates_near_bump(self, quick_adaptive_study):
        """The gaussian bump sits at (1/2, 1/2) with width 1/10; after the
        cycles a disproportionate share of cells must lie within r = 1/4 of
        the centre (the area fraction of that disk is ~20%)."""
        mesh = quick_adaptive_study.final_mesh
        centroids = np.array(
            [mesh.cell_geometry(ci).centroid for ci in range(mesh.num_cells)]
        )
        r = np.hypot(centroids[:, 0] - 0.5, centroids[:, 1] - 0.5)
        assert (r < 0.25).mean() > 0.40

    def test_final_mesh_has_hanging_nodes(self, quick_adaptive_study):
        """Local quad refinement leaves neighbours with subdivided edges,
        i.e. cells listing more than 4 boundary vertices."""
        mesh = quick_adaptive_study.final_mesh
        oversized = sum(1 for cell in mesh.cells if len(cell) > 4)
        assert oversized > 0

    def test_adaptive_no_worse_than_uniform_at_matched_dofs(
        self, quick_adaptive_study
    ):
        rows = matched_dof_comparison(quick_adaptive_study)
        assert rows, "no adaptive point fell inside the uniform dof range"
        for _, e_adapt, e_unif in rows:
            assert e_adapt <= e_unif * 1.10

    def test_rejects_zero_cycles(self):
        with pytest.raises(ValueError, match="cycles"):
            run_adaptive_study(get_problem("gaussian"), k=1, cycles=0, start_n=8, theta=0.3,
                               tau=1e-3, t_end=1.0)

    @pytest.mark.parametrize("cycles", [1, 2])
    @pytest.mark.parametrize("theta", [0.0, 5.0, float("nan")])
    def test_rejects_marking_fraction_before_any_mesh(self, theta, cycles, monkeypatch):
        built = []
        monkeypatch.setattr(A, "generate_distorted_square_mesh",
                            lambda *args, **kw: built.append(args))
        with pytest.raises(ValueError, match=r"^marking fraction must lie in \(0, 1\]$"):
            run_adaptive_study(get_problem("gaussian"), k=1, cycles=cycles, start_n=4,
                               theta=theta, tau=0.5, t_end=0.5)
        assert built == []

    def test_first_mesh_is_solved_once(self, monkeypatch):
        """The uniform ladder starts from adaptive cycle 0: one assembly
        per adaptive cycle plus one per further uniform level."""
        calls = []

        def counting_assemble(*args):
            calls.append(args)
            return assemble(*args)

        monkeypatch.setattr(A, "assemble", counting_assemble)
        study = run_adaptive_study(get_problem("gaussian"), k=1, cycles=3, start_n=8, theta=0.3,
                                   tau=0.5, t_end=1.0)
        assert len(study.uniform.pairs) >= 2
        assert len(calls) == 3 + len(study.uniform.pairs) - 1
        first, start = study.uniform.pairs[0], study.adaptive.pairs[0]
        for name in ("h", "e0", "e1", "num_dofs", "num_active"):
            assert getattr(first, name) == getattr(start, name)
        assert all(pair.seconds > 0 for pair in study.adaptive.pairs + study.uniform.pairs)

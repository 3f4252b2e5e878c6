"""Local form assembly tests: structure, consistency, and coefficient checks."""

import dataclasses
import logging
import re
import warnings

import numpy as np
import pytest
import sympy as sp

from manufactured import T, X, Y, polynomial_patch, residual
from p1 import triangle_grid
from polyvem import forms as F
from polyvem import problems as PR
from polyvem.mesh import (
    PolyMesh,
    generate_concave_mesh,
    generate_distorted_square_mesh,
    generate_voronoi_mesh,
    refine_cells,
)
from polyvem.projectors import build_element, polynomial_dimension
from polyvem.quadrature import map_to_triangle
from polyvem.system import assemble

UNIT_SQUARE_GEOM = PolyMesh(
    [[0, 0], [1, 0], [1, 1], [0, 1]], [[0, 1, 2, 3]]
).cell_geometry(0)


def small_cell_geom(n=5, index=12, seed=2):
    mesh = generate_distorted_square_mesh(n, 0.25, seed=seed)
    return mesh.cell_geometry(index)


def cell_element(geom, k):
    """Per-cell view of one cell built as an element group of one."""
    return build_element(geom[None], k)[0]


def cell_forms(el, problem):
    """The four forms of one cell, built for its element as a group of one."""
    lf = F.build_local_forms(el[None], problem)
    return dataclasses.replace(lf, m1=lf.m1[0], m2=lf.m2[0], a=lf.a[0], b=lf.b[0])


def cell_stabilizations(el, *scales):
    """The dofi-dofi stabilization c Q^T Q of one cell for each scale c."""
    base = el.stab_q.T @ el.stab_q
    return [c * base for c in scales]


def _poisoned(problem, name, where, value):
    """``problem`` with field ``name`` replaced by ``value`` at the points
    where ``where(x, y)`` holds, and sampled as the package samples it at
    every other point."""

    def field(x, y):
        out = PR.sample(problem, name, np.column_stack([x, y])).copy()
        out[where(x, y)] = value
        return out

    return dataclasses.replace(problem, **{name: field})


class TestCoefficientChecks:
    def test_variable_problem_centroid_scales(self):
        # mu = (x + y + 1) I, eps = (x^2 + y) I and sigma = x + y - 1 on the
        # unit square and on the four quarters of a 2x2 mesh
        prob = PR.get_problem("variable")
        square = cell_element(UNIT_SQUARE_GEOM, 1)[None]
        quarters = build_element(generate_distorted_square_mesh(2, 0.0, seed=0).cell_groups[0], 1)
        np.testing.assert_array_equal(
            quarters.geom.centroid, [[0.25, 0.25], [0.75, 0.25], [0.25, 0.75], [0.75, 0.75]]
        )
        area, mu_k, s3 = F.stabilization_scales(square, prob)
        assert (area.tolist(), mu_k.tolist(), s3.tolist()) == ([1.0], [2.0], [0.75])
        area, mu_k, s3 = F.stabilization_scales(quarters, prob)
        assert area.tolist() == [0.25] * 4
        assert mu_k == pytest.approx([1.5, 2.0, 2.0, 2.5])
        eps_k = np.array([0.3125, 0.8125, 0.8125, 1.3125])
        # sigma is zero at the unit-square centroid and the off-diagonal
        # quarters, and clamped at zero where it is negative
        assert s3 == pytest.approx(eps_k + np.array([0.0, 0.0, 0.0, 0.5]) * 0.25)

    @pytest.mark.parametrize(
        "name, value, message",
        [("eps", np.inf, "eps is not finite at (0.25, 0.25)"),
         ("mu", np.array([[1.0, 0.0], [0.0, -1.0]]),
          "mu is not positive definite at (0.25, 0.25)")],
    )
    def test_centroid_only_coefficient_rejected(self, name, value, message):
        """A coefficient that is bad only at a cell centroid, where it scales
        the stabilization, and at no form point is rejected all the same."""
        mesh = generate_distorted_square_mesh(2, 0.0, seed=0)
        assert mesh.cell_geometry(0).centroid.tolist() == [0.25, 0.25]
        bad = _poisoned(PR.get_problem("convection"), name,
                        lambda x, y: (x == 0.25) & (y == 0.25), value)
        with pytest.raises(PR.CoefficientError, match=f"^{re.escape(message)}$"):
            assemble(mesh, 1, bad)

    def test_indefinite_diffusion_rejected(self):
        bad = PR.SobolevProblem(
            name="bad",
            mu=lambda x, y: np.array([[1.0, 0.0], [0.0, -1.0]]),
            eps=PR.constant_matrix(1.0),
            beta=PR.constant_vector(0.0, 0.0),
            div_beta=lambda x, y: 0.0,
            gamma=lambda x, y: 1.0,
            f=lambda x, y, t: 0.0,
            dirichlet=lambda x, y, t: 0.0,
            u0=lambda x, y: 0.0,
        )
        with pytest.raises(PR.CoefficientError, match=r"^mu is not positive definite at"):
            assemble(generate_distorted_square_mesh(2, 0.0, seed=0), 1, bad)

    @pytest.mark.parametrize(
        "field, value",
        [("mu", np.nan), ("eps", np.inf), ("beta", np.nan), ("gamma", np.nan),
         ("div_beta", np.nan)],
    )
    def test_non_finite_coefficient_rejected(self, field, value):
        """A value that is not finite is named with its own field: gamma
        and div_beta, not the sigma the forms make of them."""
        bad = _poisoned(PR.get_problem("variable"), field, lambda x, y: x > 0.5, value)
        with pytest.raises(PR.CoefficientError, match=rf"^{field} is not finite at") as info:
            assemble(generate_distorted_square_mesh(4, 0.0, seed=0), 1, bad)
        x, y = map(float, re.search(r"at \((\S+), (\S+)\)$", str(info.value)).groups())
        assert 0.5 < x < 1.0 and 0.0 < y < 1.0

    def test_negative_sigma_warns_not_raises(self, caplog):
        # the variable problem has sigma = x + y - 1 < 0 near the origin;
        # the note names the lowest sigma over every group's form points,
        # and is logged once at WARNING, not raised as a Python warning
        prob = PR.get_problem("variable")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            system = assemble(generate_distorted_square_mesh(4, 0.0, seed=0), 1, prob)
        assert caught == []
        pts = np.concatenate([g.quad_points.reshape(-1, 2) for g in system.groups])
        sigma = PR.sample(prob, "gamma", pts) - 0.5 * PR.sample(prob, "div_beta", pts)
        low = np.argmin(sigma)
        assert system.coefficient_notes == [
            f"sigma = gamma - div(beta)/2 is negative (min {sigma[low]:.4g} at "
            f"({pts[low, 0]:.4g}, {pts[low, 1]:.4g}))"
        ]
        assert [(r.name, r.levelno, r.getMessage()) for r in caplog.records] == [
            ("polyvem.forms", logging.WARNING, system.coefficient_notes[0])
        ]

    def test_clean_problem_passes_silently(self, caplog):
        prob = PR.get_problem("convection")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mesh = generate_distorted_square_mesh(2, 0.0, seed=0)
            assert assemble(mesh, 1, prob).coefficient_notes == []
        assert not [r for r in caplog.records if r.levelno >= logging.WARNING]


class TestStabilization:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_kernel_contains_polynomial_dofs(self, k):
        el = cell_element(UNIT_SQUARE_GEOM, k)
        s1, s2, s3 = cell_stabilizations(el, 1.0, 1.0, 1.0)
        for s in (s1, s2, s3):
            assert np.abs(s @ el.dof_matrix).max() < 1e-12

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_positive_semidefinite_random_vectors(self, k):
        el = cell_element(small_cell_geom(), k)
        s1, s2, s3 = cell_stabilizations(el, 2.0, 0.5, 1.5)
        rng = np.random.default_rng(7)
        for _ in range(100):
            w = rng.standard_normal(el.num_dofs)
            for s in (s1, s2, s3):
                assert w @ s @ w >= -1e-12

    def test_positive_on_non_polynomial_part(self):
        el = cell_element(UNIT_SQUARE_GEOM, 2)
        s1, _, _ = cell_stabilizations(el, 1.0, 1.0, 1.0)
        rng = np.random.default_rng(3)
        w = rng.standard_normal(el.num_dofs)
        w_np = el.stab_q @ w  # non-polynomial component
        assert np.abs(w_np).max() > 1e-3
        assert w_np @ s1 @ w_np > 0

    def test_mass_stabilization_dilation_scaling(self):
        # doubling the cell multiplies |K| by 4 and leaves Q dimensionless
        small = PolyMesh([[0, 0], [1, 0], [1, 1], [0, 1]], [[0, 1, 2, 3]]).cell_geometry(0)
        big = PolyMesh(
            [[0, 0], [2, 0], [2, 2], [0, 2]], [[0, 1, 2, 3]]
        ).cell_geometry(0)
        prob = PR.get_problem("convection")
        el_small, el_big = cell_element(small, 2), cell_element(big, 2)
        s1_small = F.stabilization_scales(el_small[None], prob)[0]
        s1_big = F.stabilization_scales(el_big[None], prob)[0]
        assert s1_big.tolist() == [4.0 * s1_small[0]]
        np.testing.assert_allclose(el_big.stab_q, el_small.stab_q, atol=1e-12)


@pytest.fixture(params=[1, 2, 3], ids=["k1", "k2", "k3"])
def k(request):
    return request.param


class TestFormMatrices:
    def test_convection_matrix_skew(self, k):
        el = cell_element(small_cell_geom(), k)
        lf = cell_forms(el, PR.get_problem("variable"))
        assert np.abs(lf.b + lf.b.T).max() < 1e-14

    def test_mass_polynomial_consistency(self, k):
        """m1_h(p, q) = (p, q) exactly for polynomials: the projection is
        exact and the stabilization vanishes."""
        el = cell_element(small_cell_geom(), k)
        lf = cell_forms(el, polynomial_patch(k))
        got = el.dof_matrix.T @ lf.m1 @ el.dof_matrix
        assert np.abs(got - el.mass_monomials).max() < 1e-12

    def test_gradient_mass_polynomial_consistency_variable_mu(self, k):
        """m2_h on polynomial dofs equals int mu grad p . grad q for the
        fully variable coefficient set, checked against a refined rule."""
        geom = small_cell_geom()
        el = cell_element(geom, k)
        prob = PR.get_problem("variable")
        lf = cell_forms(el, prob)
        got = el.dof_matrix.T @ lf.m2 @ el.dof_matrix

        exact = np.zeros_like(got)
        for tri in el.geom.triangles:
            pts, w = map_to_triangle(12, tri)
            vals = el.basis.eval(pts)
            gx, gy = vals @ el.basis.derivative_map(0), vals @ el.basis.derivative_map(1)
            mu = prob.mu(pts[:, 0], pts[:, 1])[:, 0, 0]  # isotropic
            exact += (gx * (w * mu)[:, None]).T @ gx + (gy * (w * mu)[:, None]).T @ gy
        assert np.abs(got - exact).max() < 1e-11

    def test_convection_polynomial_consistency(self, k):
        """b_h on polynomial dofs matches the skew form built from exact
        monomial integrals."""
        geom = small_cell_geom()
        el = cell_element(geom, k)
        prob = PR.get_problem("convection")  # constant beta = (10, 10)
        lf = cell_forms(el, prob)
        got = el.dof_matrix.T @ lf.b @ el.dof_matrix
        cx = el.basis.derivative_map(0)
        cy = el.basis.derivative_map(1)
        h = el.mass_monomials
        x_exact = 10.0 * (h @ cx + h @ cy)  # (beta . grad m_q, m_p)
        exact = 0.5 * (x_exact - x_exact.T)
        assert np.abs(got - exact).max() < 1e-11

    def test_m1_positive_definite(self, k):
        el = cell_element(small_cell_geom(), k)
        lf = cell_forms(el, PR.get_problem("convection"))
        assert np.linalg.eigvalsh(lf.m1).min() > 0

    def test_m2_psd_with_constant_kernel(self, k):
        """The gradient-mass matrix annihilates exactly the constant
        function (its dof vector is the first column of D) and is positive
        on the complement."""
        el = cell_element(small_cell_geom(), k)
        lf = cell_forms(el, PR.get_problem("convection"))
        eigs = np.linalg.eigvalsh(lf.m2)
        scale = eigs[-1]
        assert eigs[0] > -1e-13 * scale
        assert eigs[1] > 1e-8 * scale  # one-dimensional kernel only
        const_dofs = el.dof_matrix[:, 0]
        assert np.abs(lf.m2 @ const_dofs).max() < 1e-12 * scale

    def test_a_positive_definite_when_sigma_nonnegative(self, k):
        el = cell_element(small_cell_geom(), k)
        lf = cell_forms(el, PR.get_problem("convection"))
        sym = 0.5 * (lf.a + lf.a.T)
        assert np.linalg.eigvalsh(sym).min() > 0


def _with_source(prob, f):
    fields = {name: getattr(prob, name) for name in prob.__dataclass_fields__}
    return PR.SobolevProblem(**{**fields, "f": f})


def _element_load(el, prob, t):
    """Local load vector through the element's own rule."""
    pts = el.quad_points
    return F.load_map_block(el[None])[0] @ prob.f(pts[:, 0], pts[:, 1], t)


def _oracle_pi0_values(el, order=10):
    """Points, weights and pi0 phi_i values (one column per dof) of an
    order-``order`` rule over the cell, far above the load rule's 2k."""
    pts, w = map_to_triangle(order, el.geom.triangles)
    return pts, w, el.basis.eval(pts) @ el.pi0_star


# the fan from vertex 0 meets the hanging vertex 1 on a straight run and
# drops the zero-area piece
HANGING_NODE_CELL = PolyMesh(
    [[0.0, 0.0], [0.5, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]], [[0, 1, 2, 3, 4]]
).cell_geometry(0)

LOAD_CELLS = {
    "distorted": small_cell_geom(),
    "voronoi": generate_voronoi_mesh(16, 2, seed=3).cell_geometry(5),
    "concave": generate_concave_mesh(1).cell_geometry(1),
    "hanging": HANGING_NODE_CELL,
    "triangle": triangle_grid(3, 0).cell_geometry(4),
}


LOAD_MESHES = {
    "one-cell": lambda: PolyMesh(small_cell_geom().coords, [[0, 1, 2, 3]]),
    "voronoi": lambda: generate_voronoi_mesh(30, lloyd_iterations=3, seed=4),
    "hanging": lambda: refine_cells(generate_distorted_square_mesh(4, 0.2, seed=3), [1, 5, 10]),
    "triangles": lambda: triangle_grid(4, 0),
}


class TestLoad:
    def test_zero_source_gives_zero(self, k):
        el = cell_element(small_cell_geom(), k)
        zeroed = _with_source(polynomial_patch(k), lambda x, y, t: np.zeros(np.shape(x)))
        load = _element_load(el, zeroed, 0.7)
        assert np.abs(load).max() == 0.0

    def test_unit_source_k1_sums_to_area(self):
        el = cell_element(small_cell_geom(), 1)
        unit = _with_source(polynomial_patch(1), lambda x, y, t: np.ones(np.shape(x)))
        load = _element_load(el, unit, 0.0)
        # k = 1 hat functions sum to one, so the loads sum to the area
        assert load.sum() == pytest.approx(el.geom.area, abs=1e-13)

    def test_load_map_block_matches_direct(self, k):
        """On one-cell and multi-group meshes, each cell's columns of the
        global load map are its load points: the load map applied to the
        source there, and zero at every other point, is the cell's block
        applied to the source on the cell's dofs, and zero on every other
        dof."""
        prob = PR.get_problem("gaussian")
        for make_mesh in LOAD_MESHES.values():
            system = assemble(make_mesh(), k, prob)
            qp = system.quad_points
            column = {tuple(p): i for i, p in enumerate(qp.tolist())}
            assert len(column) == len(qp) == sum(len(el.quad_points) for el in system.elements)
            f = prob.f(qp[:, 0], qp[:, 1], 0.4)
            for ci, el in enumerate(system.elements):
                cols = [column[tuple(p)] for p in el.quad_points.tolist()]
                only = np.zeros_like(f)
                only[cols] = f[cols]
                got = system.load_map @ only
                dofs = system.dofmap.cell_dofs(ci)
                want = _element_load(el, prob, 0.4)
                assert np.abs(got[dofs] - want).max() <= 1e-13 * np.abs(want).max()
                assert not np.delete(got, dofs).any()

    @pytest.mark.parametrize("cell", sorted(LOAD_CELLS))
    def test_polynomial_source_matches_oracle(self, k, cell):
        """The degree-2k load rule is exact for f in P_k: (f, pi0 phi_i)
        has degree at most 2k."""
        el = cell_element(LOAD_CELLS[cell], k)
        coeffs = np.random.default_rng(k).uniform(-1.0, 1.0, polynomial_dimension(k))

        def f(x, y, t):
            return el.basis.eval(np.column_stack([x, y])) @ coeffs

        load = _element_load(el, _with_source(polynomial_patch(k), f), 0.0)
        pts, w, pi0_vals = _oracle_pi0_values(el)
        oracle = pi0_vals.T @ (w * f(pts[:, 0], pts[:, 1], 0.0))
        assert np.abs(load - oracle).max() <= 1e-13 * np.abs(oracle).max()

    def test_smooth_source_within_degree_bound(self, k):
        """Error of the degree-2k rule on a smooth source, against the bound
        its degree implies.

        Both rules are exact on q * pi0 phi_i for q in P_k, so for any such
        q the error is the rule minus the oracle applied to (f - q) pi0 phi_i,
        whose size is at most the sum of both rules applied to
        |f - q| |pi0 phi_i| (positive weights).  q is the least-squares fit
        of f in P_k, so the bound is O(h^(k+1)) times the load (measured
        errors: 5.9e-7, 3.2e-8, 2.3e-9 for k = 1, 2, 3 on this h ~ 0.04 cell,
        at most 0.13 of the bound)."""
        geom = small_cell_geom(n=32, index=512, seed=2)
        el = cell_element(geom, k)
        prob = PR.get_problem("variable")
        load = _element_load(el, prob, 1.0)

        pts, w, pi0_vals = _oracle_pi0_values(el)
        fv = prob.f(pts[:, 0], pts[:, 1], 1.0)
        oracle = pi0_vals.T @ (w * fv)

        nk = polynomial_dimension(k)
        q = np.linalg.lstsq(el.basis.eval(pts)[:, :nk], fv, rcond=None)[0]
        lp, lw = el.quad_points, el.quad_weights
        load_gap = np.abs(prob.f(lp[:, 0], lp[:, 1], 1.0) - el.basis.eval(lp) @ q)
        load_pi0 = np.abs(el.basis.eval(lp) @ el.pi0_star)
        oracle_gap = np.abs(fv - el.basis.eval(pts) @ q)
        bound = (lw * load_gap) @ load_pi0 + (w * oracle_gap) @ np.abs(pi0_vals)
        err = np.abs(load - oracle)
        assert np.all(err <= bound + 1e-15 * np.abs(oracle).max())


class TestProblemCatalog:
    def test_catalog_names(self):
        assert set(PR.PROBLEM_NAMES) == {"variable", "convection", "gaussian"}

    def test_example_numbers_name_the_catalog(self):
        for number, name in (("1", "variable"), ("2", "convection"), ("3", "gaussian")):
            assert PR.get_problem(number).name == name

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError, match="unknown problem"):
            PR.get_problem("nope")

    @pytest.mark.parametrize("name", PR.PROBLEM_NAMES)
    def test_dirichlet_matches_exact_solution(self, name):
        prob = PR.get_problem(name)
        tb = np.linspace(0.0, 1.0, 7)
        xb = np.concatenate([tb, tb, np.zeros(7), np.ones(7)])
        yb = np.concatenate([np.zeros(7), np.ones(7), tb, tb])
        for t in (0.0, 0.3, 1.0):
            points = np.column_stack([xb, yb])
            np.testing.assert_allclose(
                PR.sample(prob, "dirichlet", points, np.array([t]))[:, 0],
                PR.sample(prob, "u_exact", points, t), atol=1e-14
            )

    @pytest.mark.parametrize("name", PR.PROBLEM_NAMES)
    def test_initial_value_matches_exact_solution(self, name):
        prob = PR.get_problem(name)
        pts = np.random.default_rng(1).uniform(0, 1, size=(20, 2))
        np.testing.assert_allclose(
            PR.sample(prob, "u0", pts), PR.sample(prob, "u_exact", pts, 0.0), atol=1e-14
        )

    def test_variable_problem_sigma(self):
        """The sigma the forms make of the variable problem's gamma and
        div_beta is x + y - 1: so is each group's lowest, at its point."""
        prob = PR.get_problem("variable")
        mesh = generate_voronoi_mesh(16, lloyd_iterations=3, seed=2)
        lows = [F.build_local_forms(build_element(g, 2), prob).sigma_low for g in mesh.cell_groups]
        assert len(lows) > 1
        for value, x, y in lows:
            assert value == pytest.approx(x + y - 1.0, abs=1e-15)


class TestManufacturedSources:
    """The hand-coded source terms are frozen against symbolic residuals."""

    def _check(self, prob, mu, eps, beta, gamma, u, rel=1e-12):
        f_sym = sp.lambdify((X, Y, T), residual(u, mu, eps, beta, gamma), "numpy")
        rng = np.random.default_rng(5)
        pts = rng.uniform(0.05, 0.95, size=(50, 2))
        for t in (0.05, 0.4, 1.0):
            want = np.broadcast_to(f_sym(pts[:, 0], pts[:, 1], t), (len(pts),))
            got = prob.f(pts[:, 0], pts[:, 1], t)
            scale = max(1.0, np.abs(want).max())
            assert np.abs(got - want).max() / scale < rel

    def test_variable(self):
        u = T * sp.sin(sp.pi * X) * sp.sin(sp.pi * Y)
        self._check(PR.get_problem("variable"), X + Y + 1, X**2 + Y, (X, Y), X + Y, u)

    def test_convection(self):
        u = T * sp.exp(X + Y)
        self._check(PR.get_problem("convection"), 1, sp.Rational(1, 10**6), (10, 10), 1, u)

    def test_gaussian(self):
        u = T * sp.exp(-100 * ((X - sp.Rational(1, 2)) ** 2 + (Y - sp.Rational(1, 2)) ** 2))
        self._check(PR.get_problem("gaussian"), 1, 1, (1, 1), 1, u, rel=1e-11)

"""Local form assembly tests: structure, consistency, and coefficient checks."""

import numpy as np
import pytest

from polyvem import forms as F
from polyvem import problems as PR
from polyvem.mesh import (
    PolyMesh,
    generate_concave_mesh,
    generate_distorted_square_mesh,
    generate_voronoi_mesh,
)
from polyvem.projectors import build_element, polynomial_dimension
from polyvem.quadrature import map_to_triangle, triangle_rule, triangulate_polygon
from polyvem.system import assemble

UNIT_SQUARE_GEOM = PolyMesh(
    [[0, 0], [1, 0], [1, 1], [0, 1]], [[0, 1, 2, 3]]
).cell_geometry(0)


def small_cell_geom(n=5, index=12, seed=2):
    mesh = generate_distorted_square_mesh(n, 0.25, seed=seed)
    return mesh.cell_geometry(index)


class TestCoefficientChecks:
    def test_variable_problem_centroid_scales(self):
        prob = PR.get_problem("variable")
        mu_k, eps_k, sigma_k = F.constant_coefficient_scales(
            prob, UNIT_SQUARE_GEOM.centroid
        )
        assert mu_k == pytest.approx(2.0)
        assert eps_k == pytest.approx(0.75)
        assert sigma_k == 0.0  # sigma(centroid) = 0, clamped at zero

    def test_indefinite_diffusion_rejected(self):
        bad = PR.SobolevProblem(
            name="bad",
            mu=lambda x, y: np.broadcast_to(
                np.array([[1.0, 0.0], [0.0, -1.0]]), np.shape(x) + (2, 2)
            ).copy(),
            eps=PR.constant_matrix(1.0),
            beta=PR.constant_vector(0.0, 0.0),
            div_beta=lambda x, y: np.zeros(np.shape(x)),
            gamma=lambda x, y: np.ones(np.shape(x)),
            f=lambda x, y, t: np.zeros(np.shape(x)),
            dirichlet=lambda x, y, t: np.zeros(np.shape(x)),
            u0=lambda x, y: np.zeros(np.shape(x)),
        )
        pts = np.array([[0.5, 0.5], [0.25, 0.75]])
        with pytest.raises(F.CoefficientError, match="positive definite"):
            F.check_coefficients(bad, pts)

    def test_negative_sigma_warns_not_raises(self):
        # the variable problem has sigma = x + y - 1 < 0 near the origin
        prob = PR.get_problem("variable")
        pts = np.array([[0.1, 0.1], [0.9, 0.9]])
        with pytest.warns(F.CoefficientWarning, match="sigma"):
            notes = F.check_coefficients(prob, pts)
        assert len(notes) == 1

    def test_clean_problem_passes_silently(self):
        prob = PR.get_problem("convection")
        pts = np.array([[0.1, 0.1], [0.9, 0.9]])
        import warnings as w

        with w.catch_warnings():
            w.simplefilter("error")
            assert F.check_coefficients(prob, pts) == []


class TestStabilization:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_kernel_contains_polynomial_dofs(self, k):
        el = build_element(UNIT_SQUARE_GEOM, k)
        s1, s2, s3 = F.build_stabilizations(el, 1.0, 1.0, 1.0)
        for s in (s1, s2, s3):
            assert np.abs(s @ el.dof_matrix).max() < 1e-12

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_positive_semidefinite_random_vectors(self, k):
        el = build_element(small_cell_geom(), k)
        s1, s2, s3 = F.build_stabilizations(el, 2.0, 0.5, 1.5)
        rng = np.random.default_rng(7)
        for _ in range(100):
            w = rng.standard_normal(el.num_dofs)
            for s in (s1, s2, s3):
                assert w @ s @ w >= -1e-12

    def test_positive_on_non_polynomial_part(self):
        el = build_element(UNIT_SQUARE_GEOM, 2)
        s1, _, _ = F.build_stabilizations(el, 1.0, 1.0, 1.0)
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
        s_small = F.build_stabilizations(build_element(small, 2), 1.0, 1.0, 1.0)[0]
        s_big = F.build_stabilizations(build_element(big, 2), 1.0, 1.0, 1.0)[0]
        np.testing.assert_allclose(s_big, 4.0 * s_small, atol=1e-12)


@pytest.fixture(params=[1, 2, 3], ids=["k1", "k2", "k3"])
def k(request):
    return request.param


class TestFormMatrices:
    def test_convection_matrix_skew(self, k):
        el = build_element(small_cell_geom(), k)
        lf = F.build_local_forms(el, PR.get_problem("variable"))
        assert np.abs(lf.b + lf.b.T).max() < 1e-14

    def test_mass_polynomial_consistency(self, k):
        """m1_h(p, q) = (p, q) exactly for polynomials: the projection is
        exact and the stabilization vanishes."""
        el = build_element(small_cell_geom(), k)
        lf = F.build_local_forms(el, PR.polynomial_patch(k))
        got = el.dof_matrix.T @ lf.m1 @ el.dof_matrix
        assert np.abs(got - el.mass_monomials).max() < 1e-12

    def test_gradient_mass_polynomial_consistency_variable_mu(self, k):
        """m2_h on polynomial dofs equals int mu grad p . grad q for the
        fully variable coefficient set, checked against a refined rule."""
        geom = small_cell_geom()
        el = build_element(geom, k)
        prob = PR.get_problem("variable")
        lf = F.build_local_forms(el, prob)
        got = el.dof_matrix.T @ lf.m2 @ el.dof_matrix

        tris = triangulate_polygon(geom.coords)
        rule = triangle_rule(12)
        exact = np.zeros_like(got)
        for tri in tris:
            pts, w = map_to_triangle(rule, tri)
            gx, gy = el.basis.eval_gradient(pts)
            mu = prob.mu(pts[:, 0], pts[:, 1])[:, 0, 0]  # isotropic
            exact += (gx * (w * mu)[:, None]).T @ gx + (gy * (w * mu)[:, None]).T @ gy
        assert np.abs(got - exact).max() < 1e-11

    def test_convection_polynomial_consistency(self, k):
        """b_h on polynomial dofs matches the skew form built from exact
        monomial integrals."""
        geom = small_cell_geom()
        el = build_element(geom, k)
        prob = PR.get_problem("convection")  # constant beta = (10, 10)
        lf = F.build_local_forms(el, prob)
        got = el.dof_matrix.T @ lf.b @ el.dof_matrix
        cx = el.basis.derivative_map(0)
        cy = el.basis.derivative_map(1)
        h = el.mass_monomials
        x_exact = 10.0 * (h @ cx + h @ cy)  # (beta . grad m_q, m_p)
        exact = 0.5 * (x_exact - x_exact.T)
        assert np.abs(got - exact).max() < 1e-11

    def test_m1_positive_definite(self, k):
        el = build_element(small_cell_geom(), k)
        lf = F.build_local_forms(el, PR.get_problem("convection"))
        assert np.linalg.eigvalsh(lf.m1).min() > 0

    def test_m2_psd_with_constant_kernel(self, k):
        """The gradient-mass matrix annihilates exactly the constant
        function (its dof vector is the first column of D) and is positive
        on the complement."""
        el = build_element(small_cell_geom(), k)
        lf = F.build_local_forms(el, PR.get_problem("convection"))
        eigs = np.linalg.eigvalsh(lf.m2)
        scale = eigs[-1]
        assert eigs[0] > -1e-13 * scale
        assert eigs[1] > 1e-8 * scale  # one-dimensional kernel only
        const_dofs = el.dof_matrix[:, 0]
        assert np.abs(lf.m2 @ const_dofs).max() < 1e-12 * scale

    def test_a_positive_definite_when_sigma_nonnegative(self, k):
        el = build_element(small_cell_geom(), k)
        lf = F.build_local_forms(el, PR.get_problem("convection"))
        sym = 0.5 * (lf.a + lf.a.T)
        assert np.linalg.eigvalsh(sym).min() > 0


def _with_source(prob, f):
    fields = {name: getattr(prob, name) for name in prob.__dataclass_fields__}
    return PR.SobolevProblem(**{**fields, "f": f})


def _element_load(el, prob, t):
    """Local load vector through the element's own load rule."""
    pts = el.load_points
    return F.load_map_block(el) @ prob.f(pts[:, 0], pts[:, 1], t)


def _oracle_pi0_values(el, order=10):
    """Points, weights and pi0 phi_i values (one column per dof) of an
    order-``order`` rule over the cell, far above the load rule's 2k."""
    pts, w = map_to_triangle(triangle_rule(order), triangulate_polygon(el.geom.coords))
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
}


class TestLoad:
    def test_zero_source_gives_zero(self, k):
        el = build_element(small_cell_geom(), k)
        zeroed = _with_source(PR.polynomial_patch(k), lambda x, y, t: np.zeros(np.shape(x)))
        load = _element_load(el, zeroed, 0.7)
        assert np.abs(load).max() == 0.0

    def test_unit_source_k1_sums_to_area(self):
        el = build_element(small_cell_geom(), 1)
        unit = _with_source(PR.polynomial_patch(1), lambda x, y, t: np.ones(np.shape(x)))
        load = _element_load(el, unit, 0.0)
        # k = 1 hat functions sum to one, so the loads sum to the area
        assert load.sum() == pytest.approx(el.geom.area, abs=1e-13)

    def test_load_map_block_matches_direct(self, k):
        """The global load vector of a one-cell mesh is the cell's block
        applied to the source at the cell's load points."""
        geom = small_cell_geom()
        mesh = PolyMesh(geom.coords, [list(range(len(geom.coords)))])
        prob = PR.get_problem("gaussian")
        system = assemble(mesh, k, prob)
        el = system.elements[0]
        np.testing.assert_array_equal(system.quad_points, el.load_points)
        want = _element_load(el, prob, 0.4)
        got = system.load_vector(0.4)[system.dofmap.cell_dofs(0)]
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("cell", sorted(LOAD_CELLS))
    def test_polynomial_source_matches_oracle(self, k, cell):
        """The degree-2k load rule is exact for f in P_k: (f, pi0 phi_i)
        has degree at most 2k."""
        el = build_element(LOAD_CELLS[cell], k)
        coeffs = np.random.default_rng(k).uniform(-1.0, 1.0, polynomial_dimension(k))

        def f(x, y, t):
            return el.basis.eval(np.column_stack([x, y])) @ coeffs

        load = _element_load(el, _with_source(PR.polynomial_patch(k), f), 0.0)
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
        el = build_element(geom, k)
        prob = PR.get_problem("variable")
        load = _element_load(el, prob, 1.0)

        pts, w, pi0_vals = _oracle_pi0_values(el)
        fv = prob.f(pts[:, 0], pts[:, 1], 1.0)
        oracle = pi0_vals.T @ (w * fv)

        nk = polynomial_dimension(k)
        q = np.linalg.lstsq(el.basis.eval(pts)[:, :nk], fv, rcond=None)[0]
        lp, lw = el.load_points, el.load_weights
        load_gap = np.abs(prob.f(lp[:, 0], lp[:, 1], 1.0) - el.basis.eval(lp) @ q)
        load_pi0 = np.abs(el.basis.eval(lp) @ el.pi0_star)
        oracle_gap = np.abs(fv - el.basis.eval(pts) @ q)
        bound = (lw * load_gap) @ load_pi0 + (w * oracle_gap) @ np.abs(pi0_vals)
        err = np.abs(load - oracle)
        assert np.all(err <= bound + 1e-15 * np.abs(oracle).max())


class TestProblemCatalog:
    def test_catalog_names(self):
        assert set(PR.PROBLEM_NAMES) == {"variable", "convection", "gaussian"}

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
            np.testing.assert_allclose(
                prob.dirichlet(xb, yb, t), prob.u_exact(xb, yb, t), atol=1e-14
            )

    @pytest.mark.parametrize("name", PR.PROBLEM_NAMES)
    def test_initial_value_matches_exact_solution(self, name):
        prob = PR.get_problem(name)
        pts = np.random.default_rng(1).uniform(0, 1, size=(20, 2))
        np.testing.assert_allclose(
            prob.u0(pts[:, 0], pts[:, 1]),
            prob.u_exact(pts[:, 0], pts[:, 1], 0.0),
            atol=1e-14,
        )

    def test_variable_problem_sigma(self):
        prob = PR.get_problem("variable")
        x = np.array([0.2, 0.8])
        y = np.array([0.1, 0.9])
        np.testing.assert_allclose(prob.sigma(x, y), x + y - 1.0, atol=1e-15)


class TestManufacturedSources:
    """The hand-coded source terms are frozen against symbolic residuals."""

    @staticmethod
    def _sympy_residual(u, mu, eps, bx, by, gamma):
        import sympy as sp

        x, y, t = sp.symbols("x y t", real=True)
        ut = sp.diff(u, t)
        div1 = sp.diff(mu * sp.diff(ut, x), x) + sp.diff(mu * sp.diff(ut, y), y)
        div2 = sp.diff(eps * sp.diff(u, x), x) + sp.diff(eps * sp.diff(u, y), y)
        conv = bx * sp.diff(u, x) + by * sp.diff(u, y)
        return sp.lambdify((x, y, t), sp.simplify(ut - div1 - div2 + conv + gamma * u), "numpy")

    def _check(self, prob, f_sym, rel=1e-12):
        rng = np.random.default_rng(5)
        pts = rng.uniform(0.05, 0.95, size=(50, 2))
        for t in (0.05, 0.4, 1.0):
            want = np.broadcast_to(f_sym(pts[:, 0], pts[:, 1], t), (len(pts),))
            got = prob.f(pts[:, 0], pts[:, 1], t)
            scale = max(1.0, np.abs(want).max())
            assert np.abs(got - want).max() / scale < rel

    def test_variable(self):
        import sympy as sp

        x, y, t = sp.symbols("x y t", real=True)
        s = sp.sin(sp.pi * x) * sp.sin(sp.pi * y)
        f = self._sympy_residual(t * s, x + y + 1, x**2 + y, x, y, x + y)
        self._check(PR.get_problem("variable"), f)

    def test_convection(self):
        import sympy as sp

        x, y, t = sp.symbols("x y t", real=True)
        f = self._sympy_residual(
            t * sp.exp(x + y), 1, sp.Rational(1, 10**6), 10, 10, 1
        )
        self._check(PR.get_problem("convection"), f)

    def test_gaussian(self):
        import sympy as sp

        x, y, t = sp.symbols("x y t", real=True)
        r2 = (x - sp.Rational(1, 2)) ** 2 + (y - sp.Rational(1, 2)) ** 2
        f = self._sympy_residual(t * sp.exp(-100 * r2), 1, 1, 1, 1, 1)
        self._check(PR.get_problem("gaussian"), f, rel=1e-11)

    def test_quadratic_time(self):
        import sympy as sp

        x, y, t = sp.symbols("x y t", real=True)
        s = sp.sin(sp.pi * x) * sp.sin(sp.pi * y)
        f = self._sympy_residual(t**2 * s, 1, 1, 0, 0, 1)
        self._check(PR.quadratic_time(), f)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_polynomial_patch(self, k):
        import sympy as sp

        x, y, t = sp.symbols("x y t", real=True)
        coeff = {1: (1.0, 2.0, -1.0), 2: (0.5, -1.0, 2.0), 3: (0.25, 1.0, -0.5)}[k]
        p = coeff[0] + coeff[1] * x + coeff[2] * y
        if k >= 2:
            p = p + sp.Rational(3, 4) * x * y - sp.Rational(1, 2) * x**2
        if k >= 3:
            p = p + sp.Rational(3, 10) * x**2 * y - sp.Rational(1, 5) * y**3
        f = self._sympy_residual(t * p, 1, 1, 0, 0, 1)
        self._check(PR.polynomial_patch(k), f)

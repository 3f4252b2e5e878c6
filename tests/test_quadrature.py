"""Quadrature tests against closed-form and edge-integral oracles."""

import math

import numpy as np
import pytest

from polyvem import quadrature as Q
from polyvem.mesh import generate_concave_mesh, generate_voronoi_mesh

REF_TRIANGLE = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
UNIT_SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


def monomial_integral_reference_triangle(a: int, b: int) -> float:
    """Closed form: int_T x^a y^b dA = a! b! / (a + b + 2)! on the unit triangle."""
    return math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)


def greens_theorem_monomial_integral(coords: np.ndarray, a: int, b: int) -> float:
    """int_K x^a y^b dA via the divergence theorem, independent of any
    triangulation: with F = (x^{a+1} y^b / (a+1), 0),
    int_K div F = sum over edges of int_e x^{a+1} y^b n_x / (a+1) ds,
    each edge integral by Gauss-Legendre exact for the polynomial degree."""
    ng = (a + b + 3) // 2 + 1
    t, w = np.polynomial.legendre.leggauss(ng)
    t = 0.5 * (t + 1.0)
    w = 0.5 * w
    total = 0.0
    m = len(coords)
    for i in range(m):
        p, q = coords[i], coords[(i + 1) % m]
        tangent = q - p
        length = float(np.hypot(*tangent))
        nx = tangent[1] / length  # outward normal x-component for CCW loops
        x = p[0] + t * tangent[0]
        y = p[1] + t * tangent[1]
        total += float((w * x ** (a + 1) * y**b).sum()) * length * nx / (a + 1)
    return total


class TestTriangleRules:
    @pytest.mark.parametrize("order", range(0, 13))
    def test_exact_on_reference_triangle(self, order):
        pts, w = Q.map_to_triangle(Q.triangle_rule(order), REF_TRIANGLE)
        for a in range(order + 1):
            for b in range(order + 1 - a):
                got = float(w @ (pts[:, 0] ** a * pts[:, 1] ** b))
                exact = monomial_integral_reference_triangle(a, b)
                assert got == pytest.approx(exact, rel=1e-12, abs=1e-15)

    def test_exact_on_mapped_triangle(self):
        tri = np.array([[0.2, -0.1], [1.3, 0.4], [0.5, 1.7]])
        pts, w = Q.map_to_triangle(Q.triangle_rule(6), tri)
        for a in range(7):
            for b in range(7 - a):
                oracle = greens_theorem_monomial_integral(tri, a, b)
                assert float(w @ (pts[:, 0] ** a * pts[:, 1] ** b)) == pytest.approx(
                    oracle, rel=1e-12, abs=1e-14
                )

    def test_weights_positive_and_sum(self):
        for order in range(0, 11):
            rule = Q.triangle_rule(order)
            assert (rule.weights > 0).all()
            assert rule.weights.sum() == pytest.approx(1.0, abs=1e-14)


class TestPolygonRules:
    def test_unit_square_constants(self):
        rule = Q.polygon_rule(UNIT_SQUARE, 0)
        assert rule.weights.sum() == pytest.approx(1.0, abs=1e-14)

    def test_unit_square_x2y2(self):
        rule = Q.polygon_rule(UNIT_SQUARE, 4)
        got = float(rule.weights @ (rule.points[:, 0] ** 2 * rule.points[:, 1] ** 2))
        assert got == pytest.approx(1.0 / 9.0, abs=1e-14)

    def test_concave_cell_linear_against_edge_oracle(self):
        mesh = generate_concave_mesh(1)
        coords = mesh.cell_geometry(0).coords
        rule = Q.polygon_rule(coords, 2)
        got = float(rule.weights @ (rule.points[:, 0] + rule.points[:, 1]))
        oracle = greens_theorem_monomial_integral(coords, 1, 0) + greens_theorem_monomial_integral(
            coords, 0, 1
        )
        assert abs(got - oracle) < 1e-12

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_monomials_match_edge_oracle_on_all_families(self, k):
        cells = [
            UNIT_SQUARE,
            generate_concave_mesh(1).cell_geometry(1).coords,
            generate_voronoi_mesh(16, 2, seed=3).cell_geometry(5).coords,
        ]
        order = 2 * k + 2
        for coords in cells:
            rule = Q.polygon_rule(coords, order)
            for a in range(order + 1):
                for b in range(order + 1 - a):
                    got = float(rule.weights @ (rule.points[:, 0] ** a * rule.points[:, 1] ** b))
                    oracle = greens_theorem_monomial_integral(coords, a, b)
                    assert got == pytest.approx(oracle, rel=1e-11, abs=1e-13)

    def test_subdivision_invariance(self):
        # integrating over the two halves of a split polygon must agree
        # with the one-shot rule: quadrature is consistent across cells
        left = np.array([[0.0, 0.0], [0.5, 0.0], [0.5, 1.0], [0.0, 1.0]])
        right = np.array([[0.5, 0.0], [1.0, 0.0], [1.0, 1.0], [0.5, 1.0]])
        for order in range(0, 9):
            whole = Q.polygon_rule(UNIT_SQUARE, order)
            parts = [Q.polygon_rule(c, order) for c in (left, right)]
            for a in range(order + 1):
                for b in range(order + 1 - a):
                    one = float(whole.weights @ (whole.points[:, 0] ** a * whole.points[:, 1] ** b))
                    two = sum(
                        float(r.weights @ (r.points[:, 0] ** a * r.points[:, 1] ** b))
                        for r in parts
                    )
                    assert abs(one - two) < 1e-11

    def test_convex_cells_fan_into_m_minus_2_triangles(self):
        hexagon = np.array(
            [[np.cos(a), np.sin(a)] for a in np.linspace(0.0, 2.0 * np.pi, 7)[:-1]]
        )
        mesh = generate_voronoi_mesh(16, 2, seed=3)
        cells = [UNIT_SQUARE, hexagon] + [
            mesh.cell_geometry(ci).coords for ci in range(mesh.num_cells)
        ]
        for coords in cells:
            tris = Q.triangulate_polygon(coords)
            assert tris.shape == (len(coords) - 2, 3, 2)
            areas = [greens_theorem_monomial_integral(t, 0, 0) for t in tris]
            assert min(areas) > 0.0
            assert sum(areas) == pytest.approx(
                greens_theorem_monomial_integral(coords, 0, 0), rel=1e-13
            )

    def test_hanging_vertex_at_fan_apex(self):
        # vertex 0 sits on a straight run (a hanging node of a refined
        # neighbour); the fan from it must still cover the cell
        coords = np.array([[0.5, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [0.0, 0.0]])
        tris = Q.triangulate_polygon(coords)
        assert len(tris) == 3
        rule = Q.polygon_rule(coords, 4)
        for a in range(5):
            for b in range(5 - a):
                got = float(rule.weights @ (rule.points[:, 0] ** a * rule.points[:, 1] ** b))
                assert got == pytest.approx(1.0 / ((a + 1) * (b + 1)), rel=1e-13)

    def test_rules_share_the_stored_triangulation(self):
        coords = generate_concave_mesh(1).cell_geometry(1).coords
        rule = Q.polygon_rule(coords, 6)
        np.testing.assert_array_equal(rule.triangles, Q.triangulate_polygon(coords))
        pts, w = Q.map_to_triangle(Q.triangle_rule(6), rule.triangles)
        np.testing.assert_array_equal(pts, rule.points)
        np.testing.assert_array_equal(w, rule.weights)

    def test_tangled_polygon_raises(self):
        bowtie = np.array([[0.0, 0.0], [1.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(Q.QuadratureError):
            Q.triangulate_polygon(bowtie)


class TestGaussLobatto:
    def test_two_point_is_trapezoid(self):
        x, w = Q.gauss_lobatto(2)
        np.testing.assert_allclose(x, [-1.0, 1.0])
        np.testing.assert_allclose(w, [1.0, 1.0])

    def test_three_point(self):
        x, w = Q.gauss_lobatto(3)
        np.testing.assert_allclose(x, [-1.0, 0.0, 1.0], atol=1e-15)
        np.testing.assert_allclose(w, [1.0 / 3.0, 4.0 / 3.0, 1.0 / 3.0], atol=1e-15)

    def test_four_point_interior_nodes(self):
        x, w = Q.gauss_lobatto(4)
        np.testing.assert_allclose(x[1:3], [-1.0 / np.sqrt(5.0), 1.0 / np.sqrt(5.0)], atol=1e-15)
        np.testing.assert_allclose(w, [1.0 / 6.0, 5.0 / 6.0, 5.0 / 6.0, 1.0 / 6.0], atol=1e-14)

    @pytest.mark.parametrize("npts", [2, 3, 4, 5, 6])
    def test_edge_rule_exactness_degree(self, npts):
        # n-point Lobatto is exact through degree 2n - 3
        a, b = np.array([0.3, -0.2]), np.array([1.1, 0.9])
        length = float(np.hypot(*(b - a)))
        rule = Q.edge_gauss_lobatto(a, b, npts)
        assert rule.weights.sum() == pytest.approx(length, rel=1e-14)
        for deg in range(2 * npts - 2):
            t = ((rule.points - a) @ (b - a)) / length**2
            got = float(rule.weights @ t**deg)
            assert got == pytest.approx(length / (deg + 1), rel=1e-13)

    def test_interior_params_in_unit_interval(self):
        assert Q.lobatto_interior_params(1).size == 0
        np.testing.assert_allclose(Q.lobatto_interior_params(2), [0.5], atol=1e-15)
        p3 = Q.lobatto_interior_params(3)
        np.testing.assert_allclose(
            p3, [(1 - 1 / np.sqrt(5)) / 2, (1 + 1 / np.sqrt(5)) / 2], atol=1e-15
        )

    def test_degenerate_edge_raises(self):
        with pytest.raises(Q.QuadratureError):
            Q.edge_gauss_lobatto(np.array([0.5, 0.5]), np.array([0.5, 0.5]), 3)

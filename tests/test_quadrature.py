"""Quadrature tests against closed-form and edge-integral oracles, over
single triangles and over polygons triangulated by the mesh layer."""

import itertools
import math
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest

from p1 import triangle_grid
from test_system import GROUP_MESHES
from polyvem import quadrature as Q
from polyvem.analysis import family_mesh
from polyvem.mesh import (
    MeshError,
    PolyMesh,
    _clip_ears,
    generate_concave_mesh,
    generate_distorted_square_mesh,
    generate_voronoi_mesh,
    polygon_geometry,
    refine_cells,
    triangulate_polygons,
)

REF_TRIANGLE = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
UNIT_SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


def clip(stack):
    """``triangulate_polygons`` on a (G, m, 2) stack, given its areas and
    diameters as ``PolyMesh`` gives them."""
    area, _, diameter = polygon_geometry(stack)[:3]
    return triangulate_polygons(stack, area, diameter)


def triangulate(coords):
    """Triangulation of one polygon, triangulated as a stack of one."""
    [(rows, tris, _)], failed = clip(np.asarray(coords, dtype=float)[None])
    assert rows.tolist() == [0] and failed.size == 0
    return tris[0]


def polygon_rule(coords, order):
    """(points, weights) of the order-``order`` rule over one polygon."""
    return Q.map_to_triangle(order, triangulate(coords))


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


@lru_cache(maxsize=None)
def rule_meshes():
    """Levels 0-3 of the three families (seeds 0-2; the concave family has
    no seed), a mesh with hanging nodes, two deep at places, and a triangle
    grid."""
    hanging = refine_cells(generate_distorted_square_mesh(6, 0.2, seed=4), [3, 8, 14, 21, 30])
    hanging = refine_cells(hanging, [0, 9, 17])
    meshes = [family_mesh(family, level, seed=seed) for family in ("distorted", "voronoi")
              for level in range(4) for seed in range(3)]
    return meshes + [family_mesh("concave", level) for level in range(4)] + [
        hanging, triangle_grid(4, 0)]


def scaled_moments(geom, degree):
    """(G, dim) integrals of ((x - x_c)/h)^a ((y - y_c)/h)^b, a + b <= degree,
    over a cell group, by the divergence theorem on its edges (the integral
    of X^(a+1) Y^b n_x / (a+1), with Gauss-Legendre on each edge): exact up
    to rounding and independent of any triangulation."""
    rel = (geom.coords - geom.centroid[:, None]) / geom.diameter[:, None, None]
    t, w = np.polynomial.legendre.leggauss(degree // 2 + 2)
    t, w = (t + 1.0) / 2.0, w / 2.0
    step = np.roll(rel, -1, axis=1) - rel
    x, y = (rel[..., None, i] + t * step[..., None, i] for i in range(2))
    return np.stack([((w * x ** (a + 1) * y**b).sum(-1) * step[..., 1]).sum(-1) / (a + 1)
                     for d in range(degree + 1) for b in range(d + 1) for a in [d - b]], -1)


class TestTriangleRules:
    @pytest.mark.parametrize("order", range(0, 13))
    def test_exact_on_reference_triangle(self, order):
        pts, w = Q.map_to_triangle(order, REF_TRIANGLE)
        for a in range(order + 1):
            for b in range(order + 1 - a):
                got = float(w @ (pts[:, 0] ** a * pts[:, 1] ** b))
                exact = monomial_integral_reference_triangle(a, b)
                assert got == pytest.approx(exact, rel=1e-12, abs=1e-15)

    def test_exact_on_mapped_triangle(self):
        tri = np.array([[0.2, -0.1], [1.3, 0.4], [0.5, 1.7]])
        pts, w = Q.map_to_triangle(6, tri)
        for a in range(7):
            for b in range(7 - a):
                oracle = greens_theorem_monomial_integral(tri, a, b)
                assert float(w @ (pts[:, 0] ** a * pts[:, 1] ** b)) == pytest.approx(
                    oracle, rel=1e-12, abs=1e-14
                )

    def test_weights_positive_and_sum(self):
        for order in range(0, 13):
            _, weights = Q.triangle_rule(order)
            assert (weights > 0).all()
            assert weights.sum() == pytest.approx(1.0, abs=1e-14)

    def test_point_counts(self):
        counts = [len(Q.triangle_rule(order)[1]) for order in range(0, 13)]
        assert counts == [6, 6, 6, 6, 6, 12, 12, 16, 16, 25, 25, 33, 33]

    @pytest.mark.parametrize("order", range(0, 13))
    def test_points_interior(self, order):
        points, weights = Q.triangle_rule(order)
        assert points.shape == (len(weights), 3)
        assert (points > 0).all()

    @pytest.mark.parametrize("order", [4, 6, 8, 10, 12])
    def test_independent_of_vertex_order(self, order):
        """The rule mapped onto one triangle listed in each of its 6 vertex
        orders gives the same (point, weight) pairs."""
        tri = np.array([[0.2, -0.1], [1.3, 0.4], [0.5, 1.7]])

        def pairs(perm):
            pts, w = Q.map_to_triangle(order, tri[list(perm)])
            table = np.column_stack([pts, w])
            return table[np.lexsort(table.round(9).T[::-1])]

        want = pairs((0, 1, 2))
        for perm in itertools.permutations(range(3)):
            np.testing.assert_allclose(pairs(perm), want, rtol=0, atol=1e-15)

    def test_order_above_table_raises(self):
        with pytest.raises(ValueError, match="up to order 12"):
            Q.triangle_rule(13)


class TestPolygonRules:
    def test_unit_square_constants(self):
        _, weights = polygon_rule(UNIT_SQUARE, 0)
        assert weights.sum() == pytest.approx(1.0, abs=1e-14)

    def test_unit_square_x2y2(self):
        pts, w = polygon_rule(UNIT_SQUARE, 4)
        got = float(w @ (pts[:, 0] ** 2 * pts[:, 1] ** 2))
        assert got == pytest.approx(1.0 / 9.0, abs=1e-14)

    def test_concave_cell_linear_against_edge_oracle(self):
        mesh = generate_concave_mesh(1)
        coords = mesh.cell_geometry(0).coords
        pts, w = polygon_rule(coords, 2)
        got = float(w @ (pts[:, 0] + pts[:, 1]))
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
            pts, w = polygon_rule(coords, order)
            for a in range(order + 1):
                for b in range(order + 1 - a):
                    got = float(w @ (pts[:, 0] ** a * pts[:, 1] ** b))
                    oracle = greens_theorem_monomial_integral(coords, a, b)
                    assert got == pytest.approx(oracle, rel=1e-11, abs=1e-13)

    def test_subdivision_invariance(self):
        # integrating over the two halves of a split polygon must agree
        # with the one-shot rule: quadrature is consistent across cells
        left = np.array([[0.0, 0.0], [0.5, 0.0], [0.5, 1.0], [0.0, 1.0]])
        right = np.array([[0.5, 0.0], [1.0, 0.0], [1.0, 1.0], [0.5, 1.0]])
        for order in range(0, 9):
            whole = polygon_rule(UNIT_SQUARE, order)
            parts = [polygon_rule(c, order) for c in (left, right)]
            for a in range(order + 1):
                for b in range(order + 1 - a):
                    one = float(whole[1] @ (whole[0][:, 0] ** a * whole[0][:, 1] ** b))
                    two = sum(float(w @ (p[:, 0] ** a * p[:, 1] ** b)) for p, w in parts)
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
            tris = triangulate(coords)
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
        tris = triangulate(coords)
        assert len(tris) == 3
        pts, w = polygon_rule(coords, 4)
        for a in range(5):
            for b in range(5 - a):
                got = float(w @ (pts[:, 0] ** a * pts[:, 1] ** b))
                assert got == pytest.approx(1.0 / ((a + 1) * (b + 1)), rel=1e-13)

    def test_rules_share_the_stored_triangulation(self):
        """The element's one rule is the degree-2k rule mapped onto the
        triangles the mesh stored."""
        from polyvem.projectors import build_element

        geom = generate_concave_mesh(1).cell_geometry(1)
        tris = triangulate(geom.coords)
        for k in (1, 2, 3):
            el = build_element(geom[None], k)[0]
            np.testing.assert_array_equal(el.geom.triangles, tris)
            want_pts, want_w = Q.map_to_triangle(2 * k, tris)
            np.testing.assert_array_equal(el.quad_points, want_pts)
            np.testing.assert_array_equal(el.quad_weights, want_w)
        convex = generate_voronoi_mesh(16, 2, seed=3).cell_groups[-1]
        for k in (1, 2, 3):
            el = build_element(convex, k)
            want_pts, want_w = Q.cell_rule(2 * k, convex)
            np.testing.assert_array_equal(el.quad_points, want_pts)
            np.testing.assert_array_equal(el.quad_weights, want_w)

    def test_stack_splits_by_triangle_count(self):
        """A stack of pentagons splits into one group per triangle count and
        convexity, rows ascending, each polygon triangulated as it would be
        alone."""
        pentagon = np.array([[np.cos(a), np.sin(a)] for a in np.linspace(0.0, 2.0 * np.pi, 6)[:-1]])
        hanging = np.array([[0.0, 0.0], [0.5, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        reflex = np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 2.0], [1.0, 0.5], [0.0, 2.0]])
        stack = np.stack([pentagon, hanging, reflex, 2.0 * hanging, pentagon + 1.0])
        groups, failed = clip(stack)
        assert failed.size == 0
        assert [(rows.tolist(), tris.shape, convex) for rows, tris, convex in groups] == [
            ([1, 3], (2, 2, 3, 2), True),
            ([2], (1, 3, 3, 2), False),
            ([0, 4], (2, 3, 3, 2), True),
        ]
        for rows, tris, _ in groups:
            for row, got in zip(rows, tris):
                np.testing.assert_array_equal(got, triangulate(stack[row]))

    def test_cells_without_reflex_vertex_get_the_vertex0_fan(self):
        """Every cell without a reflex vertex is convex and gets the fan
        (v0, vi, vi+1), less its zero-area triangles, bit for bit: what ear
        clipping gives it.  Consecutive fan triangles share their edge from
        v0, so each pair is a quadrilateral (v0, va, vb, vc)."""
        fans = 0
        for mesh in rule_meshes():
            for geom in mesh.cell_groups:
                c = geom.coords
                tol = 1e-12 * np.ptp(c, axis=1).max(axis=1) ** 2
                prev, nxt = c - np.roll(c, 1, axis=1), np.roll(c, -1, axis=1) - c
                turns = prev[..., 0] * nxt[..., 1] - prev[..., 1] * nxt[..., 0]
                convex = turns.min(axis=1) >= -tol
                np.testing.assert_array_equal(geom.convex, convex)
                if not convex.all():
                    continue
                fan = np.stack([np.broadcast_to(c[:, :1], c[:, 2:].shape), c[:, 1:-1], c[:, 2:]],
                               axis=2)
                e1, e2 = fan[:, :, 1] - fan[:, :, 0], fan[:, :, 2] - fan[:, :, 0]
                area = 0.5 * (e1[..., 0] * e2[..., 1] - e1[..., 1] * e2[..., 0])
                kept = fan[area > tol[:, None]].reshape(geom.triangles.shape)
                np.testing.assert_array_equal(geom.triangles, kept)
                clipped, made, stuck = _clip_ears(c, 1e-12 * geom.diameter**2)
                assert not stuck.any()
                np.testing.assert_array_equal(clipped[made].reshape(kept.shape), kept)
                np.testing.assert_array_equal(kept[:, 1:, 1], kept[:, :-1, 2])
                fans += len(c)
        assert fans > 7000

    def test_mixed_stack_clips_rows_independently(self):
        """One stack of hexagons: both concave halves, a reflex hexagon with a
        collinear vertex, a convex one with a hanging vertex at index 0, a
        tangled loop, and every rotation of an L whose reflex corner lies on
        the diagonal of two ears (clipping either would pinch the loop).
        Each good row is covered by positive-area triangles that equal its
        own triangulation alone; the tangled row fails."""
        halves = [generate_concave_mesh(1).cell_geometry(ci).coords for ci in range(2)]
        reflex = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [2.0, 2.0], [1.0, 1.0], [0.0, 2.0]])
        hanging = np.array([[0.5, 0.0], [1.0, 0.0], [1.0, 1.0], [0.5, 1.0], [0.0, 1.0], [0.0, 0.0]])
        tangled = np.array([[0.0, 0.0], [4.0, 0.0], [4.0, 2.0], [1.0, -1.0], [1.0, 3.0], [0.0, 3.0]])
        ell = np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 1.0], [1.0, 1.0], [1.0, 2.0], [0.0, 2.0]])
        stack = np.stack([halves[0], tangled, reflex, hanging, halves[1]]
                         + [np.roll(ell, -s, axis=0) for s in range(6)])
        groups, failed = clip(stack)
        assert failed.tolist() == [1]
        assert sorted(row for rows, _, _ in groups for row in rows) == [0, *range(2, 11)]
        for rows, tris, _ in groups:
            for row, got in zip(rows, tris):
                np.testing.assert_array_equal(got, triangulate(stack[row]))
                assert min(greens_theorem_monomial_integral(t, 0, 0) for t in got) > 0.0
                pts, w = Q.map_to_triangle(4, got)
                for a in range(5):
                    for b in range(5 - a):
                        oracle = greens_theorem_monomial_integral(stack[row], a, b)
                        value = float(w @ (pts[:, 0] ** a * pts[:, 1] ** b))
                        assert value == pytest.approx(oracle, rel=1e-12, abs=1e-14)

    def test_tangled_polygon_raises(self):
        """The triangulation reports a tangled polygon's row, and the mesh
        rejects it as a cell: a bowtie, and a pentagram, which turns left at
        every corner, so it gets the fan, but is not covered by it."""
        bowtie = np.array([[0.0, 0.0], [1.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
        groups, failed = clip(bowtie[None])
        assert groups == [] and failed.tolist() == [0]
        with pytest.raises(MeshError, match="^cell 0 "):
            PolyMesh(bowtie, [[0, 1, 2, 3]])
        angles = np.deg2rad([0.0, 144.0, 288.0, 72.0, 216.0])
        pentagram = np.column_stack([np.cos(angles), np.sin(angles)])
        groups, failed = clip(pentagram[None])
        assert groups == [] and failed.tolist() == [0]
        with pytest.raises(MeshError, match="^cell 0 cannot be triangulated"):
            PolyMesh(pentagram, [range(5)])


class TestCellRules:
    def test_square_rule_is_gauss_legendre(self):
        """n = d/2 + 1 points per direction for the even degree d >= order,
        at least 4, inside the unit square."""
        for order, n in [(0, 3), (2, 3), (4, 3), (5, 4), (6, 4), (8, 5)]:
            s, t, weights = Q._square_rule(order)
            assert s.shape == t.shape == (n * n, 1) and (weights > 0).all()
            assert weights.sum() == pytest.approx(1.0, abs=1e-15)
            assert 0.0 < min(s.min(), t.min()) and max(s.max(), t.max()) < 1.0

    @pytest.mark.parametrize("order", [4, 6, 8])
    def test_quadrilateral_exact_through_its_bilinear_map(self, order):
        quad = np.array([[0.2, -0.1], [1.3, 0.2], [1.6, 1.4], [0.1, 0.9]])
        pts, w = Q.map_to_quadrilateral(order, quad[None])
        assert (w > 0).all()
        for a in range(order + 1):
            for b in range(order + 1 - a):
                oracle = greens_theorem_monomial_integral(quad, a, b)
                assert float(w @ (pts[:, 0] ** a * pts[:, 1] ** b)) == pytest.approx(
                    oracle, rel=1e-12, abs=1e-14)

    def test_point_counts_of_convex_cells(self):
        """Pairs of fan triangles: quad, pentagon and hexagon at k <= 2
        (degree 4) and at k = 3 (degree 6)."""
        counts = {}
        for m in (3, 4, 5, 6):
            angles = np.linspace(0.0, 2.0 * np.pi, m + 1)[:-1]
            [geom] = PolyMesh(np.column_stack([np.cos(angles), np.sin(angles)]),
                              [range(m)]).cell_groups
            counts[m] = [Q.cell_rule(order, geom)[1].shape[1] for order in (4, 6)]
            concave = Q.cell_rule(6, replace(geom, convex=~geom.convex))[1].shape[1]
            assert concave == (m - 2) * len(Q.triangle_rule(6)[1])
        assert counts == {3: [6, 12], 4: [9, 16], 5: [15, 28], 6: [18, 32]}

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_every_cell_rule_is_exact_positive_and_inside(self, k):
        """Each cell's rule of degree 2k integrates every scaled monomial up
        to degree 2k to 1e-13 of the cell's area, with positive weights and
        every point inside the cell (winding number 1)."""
        for mesh in rule_meshes():
            for geom in mesh.cell_groups:
                pts, w = Q.cell_rule(2 * k, geom)
                assert (w > 0).all()
                rel = (pts - geom.centroid[:, None]) / geom.diameter[:, None, None]
                got = np.stack([w * rel[..., 0] ** (d - b) * rel[..., 1] ** b
                                for d in range(2 * k + 1) for b in range(d + 1)], -1).sum(1)
                want = geom.diameter[:, None] ** 2 * scaled_moments(geom, 2 * k)
                assert (np.abs(got - want).max(axis=1) <= 1e-13 * geom.area).all()
                to_a = geom.coords[:, None] - pts[:, :, None]
                to_b = np.roll(geom.coords, -1, axis=1)[:, None] - pts[:, :, None]
                cross = to_a[..., 0] * to_b[..., 1] - to_a[..., 1] * to_b[..., 0]
                turns = np.arctan2(cross, (to_a * to_b).sum(-1)).sum(-1) / (2.0 * np.pi)
                np.testing.assert_allclose(turns, 1.0, atol=1e-9)

    def test_non_convex_quad_keeps_the_triangle_rule(self):
        """A distorted quad that turns right at a corner has its own group,
        and its rule is the triangle rule on its stored triangles."""
        from polyvem.projectors import build_element

        mesh = GROUP_MESHES["mixed"]()
        geom = mesh.cell_groups[mesh.cell_slot[11, 0]]
        assert not geom.convex.any() and geom.index.tolist() == [11]
        assert all(g.convex.all() for g in mesh.cell_groups if g is not geom)
        for k in (1, 2, 3):
            el = build_element(geom, k)
            want_pts, want_w = Q.map_to_triangle(2 * k, geom.triangles)
            np.testing.assert_array_equal(el.quad_points, want_pts)
            np.testing.assert_array_equal(el.quad_weights, want_w)


class TestGaussLobatto:
    @pytest.mark.parametrize("npts", [0, 1])
    def test_fewer_than_two_points_rejected(self, npts):
        with pytest.raises(ValueError, match="^Gauss-Lobatto needs at least 2 points$"):
            Q.gauss_lobatto(npts)

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
        # n-point Lobatto is exact through degree 2n - 3; on an edge the
        # nodes sit at parameter (x + 1)/2 with weights |e|/2 * w
        a, b = np.array([0.3, -0.2]), np.array([1.1, 0.9])
        length = float(np.hypot(*(b - a)))
        x, w = Q.gauss_lobatto(npts)
        weights = w * (length / 2.0)
        assert weights.sum() == pytest.approx(length, rel=1e-14)
        for deg in range(2 * npts - 2):
            got = float(weights @ ((x + 1.0) / 2.0) ** deg)
            assert got == pytest.approx(length / (deg + 1), rel=1e-13)

    def test_interior_params_in_unit_interval(self):
        # on the unit segment along x the edge points are the parameters
        def params(k):
            return Q.lobatto_edge_points(np.zeros((1, 2)), np.array([[1.0, 0.0]]), k)[0]

        assert params(1).shape == (0, 2)
        np.testing.assert_allclose(params(2), [[0.5, 0.0]], atol=1e-15)
        np.testing.assert_allclose(
            params(3)[:, 0], [(1 - 1 / np.sqrt(5)) / 2, (1 + 1 / np.sqrt(5)) / 2], atol=1e-15
        )
        assert not params(3)[:, 1].any()

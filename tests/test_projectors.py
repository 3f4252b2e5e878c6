"""Local projection operator tests: algebraic identities and approximation."""

import numpy as np
import pytest

from polyvem.mesh import PolyMesh, generate_concave_mesh, generate_voronoi_mesh
from polyvem import projectors as P
from p1 import triangle_grid
from polyvem.quadrature import gauss_lobatto, map_to_triangle
from test_system import GROUP_MESHES


def make_geometries():
    ang = np.arange(6) * np.pi / 3
    hexmesh = PolyMesh(np.column_stack([np.cos(ang), np.sin(ang)]), [list(range(6))])
    return {
        "square": PolyMesh([[0, 0], [1, 0], [1, 1], [0, 1]], [[0, 1, 2, 3]]).cell_geometry(0),
        "hexagon": hexmesh.cell_geometry(0),
        "concave": generate_concave_mesh(1).cell_geometry(0),
        "voronoi": generate_voronoi_mesh(16, 2, seed=3).cell_geometry(5),
        # collinear mid-edge vertex: two edges' boundary sums meet at vertex 1
        "hanging": PolyMesh(
            [[0, 0], [0.5, 0], [1, 0], [1, 1], [0, 1]], [[0, 1, 2, 3, 4]]
        ).cell_geometry(0),
        "triangle": triangle_grid(3, 0).cell_geometry(4),
    }


GEOMETRIES = make_geometries()


# volume-quadrature reference for B D = G: it uses the monomial mass matrix,
# not the boundary sums that build B, so the comparison checks the
# integration by parts
def grad_projection_gram(element: P.LocalElement) -> np.ndarray:
    """G with first row replaced: gradient Gram matrix of the monomials."""
    basis = element.basis
    cx, cy = basis.derivative_map(0), basis.derivative_map(1)
    g = cx.T @ element.mass_monomials @ cx + cy.T @ element.mass_monomials @ cy
    if element.k == 1:
        g[0] = element.dof_matrix[: element.layout.num_vertices].mean(axis=0)
    else:
        g[0] = element.mass_monomials[0] / element.geom.area
    return g


@pytest.fixture(params=list(GEOMETRIES), ids=list(GEOMETRIES))
def geom(request):
    return GEOMETRIES[request.param]


@pytest.fixture(params=[1, 2, 3], ids=["k1", "k2", "k3"])
def k(request):
    return request.param


class TestBasis:
    def test_negative_degree_rejected(self):
        with pytest.raises(P.VemError, match="^degree must be non-negative$"):
            P.ScaledMonomialBasis(-1, np.zeros(2), 1.0)

    def test_graded_prefix_ordering(self):
        basis = P.ScaledMonomialBasis(3, np.array([0.3, 0.4]), 1.5)
        assert basis.dim == 10
        assert [tuple(e) for e in basis.exponents[:6]] == [
            (0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2),
        ]
        for j, (a, b) in enumerate(basis.exponents):
            assert basis.index(int(a), int(b)) == j

    def test_derivative_map_matches_gradient(self):
        """Values times the derivative map against central differences."""
        basis = P.ScaledMonomialBasis(3, np.array([0.2, -0.1]), 0.7)
        pts = np.array([[0.5, 0.3], [-0.2, 0.4], [0.1, 0.1]])
        vals = basis.eval(pts)
        for axis, step in enumerate(1e-6 * np.eye(2)):
            fd = (basis.eval(pts + step) - basis.eval(pts - step)) / 2e-6
            np.testing.assert_allclose(vals @ basis.derivative_map(axis), fd, atol=1e-8)

    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_eval_matches_closed_form(self, degree):
        """Values and gradients against symbolic differentiation, for every
        exponent, at the centroid itself (xi = eta = 0) and elsewhere."""
        import sympy as sym

        center, h = np.array([0.2, -0.1]), 0.7
        basis = P.ScaledMonomialBasis(degree, center, h)
        pts = np.array([center, [0.5, 0.3], [-0.2, 0.4], [0.2, 0.6], [0.9, -0.1]])
        vals = basis.eval(pts)
        gx, gy = vals @ basis.derivative_map(0), vals @ basis.derivative_map(1)
        x, y = sym.symbols("x y")
        for j, (a, b) in enumerate(basis.exponents):
            mono = ((x - center[0]) / h) ** int(a) * ((y - center[1]) / h) ** int(b)
            for got, expr in ((vals, mono), (gx, mono.diff(x)), (gy, mono.diff(y))):
                want = [float(expr.subs({x: px, y: py})) for px, py in pts]
                np.testing.assert_allclose(got[:, j], want, rtol=1e-13, atol=1e-14)
        # at the centroid only the constant has a value and only the two
        # linear monomials have a gradient
        assert vals[0].tolist() == [1.0] + [0.0] * (basis.dim - 1)
        assert gx[0].tolist() == [0.0, 1.0 / h] + [0.0] * (basis.dim - 2)
        assert gy[0].tolist() == [0.0, 0.0, 1.0 / h] + [0.0] * (basis.dim - 3)

    def test_laplacian_map(self):
        basis = P.ScaledMonomialBasis(2, np.array([0.0, 0.0]), 2.0)
        lap = basis.laplacian_map()
        # laplacian of ((x)/2)^2 is 2/4 = 0.5, lands on the constant
        j = basis.index(2, 0)
        assert lap[0, j] == pytest.approx(0.5)
        assert lap[0, basis.index(0, 2)] == pytest.approx(0.5)
        assert lap[0, basis.index(1, 1)] == 0.0


class TestDofCounts:
    @pytest.mark.parametrize("k,expected", [(1, 6), (2, 13), (3, 21)])
    def test_hexagon_dof_count(self, k, expected):
        el = P.build_element(GEOMETRIES["hexagon"][None], k)[0]
        assert el.num_dofs == expected

    def test_layout_slices(self):
        el = P.build_element(GEOMETRIES["square"][None], 3)[0]
        lay = el.layout
        assert lay.num_vertices == 4
        assert lay.num_moments == 3
        assert lay.moment_offset == 12
        # each edge: its first vertex, its two interior dofs, its last vertex
        assert lay.edge_nodes.tolist() == [
            [0, 4, 5, 1], [1, 6, 7, 2], [2, 8, 9, 3], [3, 10, 11, 0],
        ]
        assert P.DofLayout(k=1, num_vertices=3).edge_nodes.tolist() == [[0, 1], [1, 2], [2, 0]]

    def test_edge_nodes_are_boundary_lobatto_points(self, geom, k):
        """The dof points through the edge-node array are the (k+1)-point
        Gauss-Lobatto nodes of every edge, in order."""
        el = P.build_element(geom[None], k)[0]
        nodes, _ = gauss_lobatto(k + 1)
        a = geom.coords
        b = np.roll(geom.coords, -1, axis=0)
        want = a[:, None] + 0.5 * (nodes[:, None] + 1.0) * (b - a)[:, None]
        got = el.boundary_dof_points[el.layout.edge_nodes]
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)

    def test_unsupported_order_raises(self):
        with pytest.raises(P.VemError, match="not supported"):
            P.build_element(GEOMETRIES["square"][None], 4)
        with pytest.raises(P.VemError):
            P.build_element(GEOMETRIES["square"][None], 0)


class TestProjectionIdentities:
    def test_gram_consistency(self, geom, k):
        """Integration-by-parts functionals applied to the monomials must
        reproduce the gradient Gram matrix computed by volume quadrature."""
        el = P.build_element(geom[None], k)[0]
        lhs = el.b_matrix @ el.dof_matrix
        rhs = grad_projection_gram(el)
        scale = max(1.0, np.abs(rhs).max())
        assert np.abs(lhs - rhs).max() / scale < 1e-10

    def test_polynomial_reproduction(self, geom, k):
        el = P.build_element(geom[None], k)[0]
        eye = np.eye(el.basis.dim)
        assert np.abs(el.pi_grad_star @ el.dof_matrix - eye).max() < 1e-10
        assert np.abs(el.pi0_star @ el.dof_matrix - eye).max() < 1e-10

    def test_gradient_projection_reproduction(self, geom, k):
        el = P.build_element(geom[None], k)[0]
        nk1 = P.polynomial_dimension(k - 1)
        for axis in range(2):
            got = el.pi0_grad_star[axis] @ el.dof_matrix
            want = el.basis.derivative_map(axis)[:nk1]
            assert np.abs(got - want).max() < 1e-10

    def test_idempotency(self, geom, k):
        el = P.build_element(geom[None], k)[0]
        pg = el.pi_grad_star
        assert np.abs(pg @ el.dof_matrix @ pg - pg).max() < 1e-10
        p0 = el.pi0_star
        assert np.abs(p0 @ el.dof_matrix @ p0 - p0).max() < 1e-10

    def test_stabilizer_vanishes_on_polynomials(self, geom, k):
        el = P.build_element(geom[None], k)[0]
        assert np.abs(el.stab_q @ el.dof_matrix).max() < 1e-12

    def test_l2_projection_orthogonality(self, geom, k):
        """(w - pi0 w, m) = 0 for all m up to degree k-2: those moments are
        dofs, so the defect is computable exactly."""
        el = P.build_element(geom[None], k)[0]
        nm = el.layout.num_moments
        if nm == 0:
            return
        rng = np.random.default_rng(42)
        w = rng.standard_normal(el.num_dofs)
        coeffs = el.pi0_star @ w
        # moments of the projection from the monomial mass matrix
        proj_moments = (el.mass_monomials[:nm] @ coeffs) / el.geom.area
        np.testing.assert_allclose(
            proj_moments, w[el.layout.moment_offset :], atol=1e-12
        )

    def test_divergence_closure(self, geom, k):
        """int_K pi0(d/dx of the interpolant of x) equals |K| exactly."""
        el = P.build_element(geom[None], k)[0]
        dofs = P.interpolate(el[None], lambda x, y: x)[0]
        coeffs = el.pi0_grad_star[0] @ dofs
        nk1 = P.polynomial_dimension(k - 1)
        integral = float(el.mass_monomials[0, :nk1] @ coeffs)
        assert integral == pytest.approx(el.geom.area, abs=1e-12)


class TestInterpolation:
    def test_interpolation_of_space_polynomial_is_exact(self, geom, k):
        el = P.build_element(geom[None], k)[0]

        def p(x, y):
            return 1.0 + 2.0 * x - y + (x * y if k >= 2 else 0.0)

        dofs = P.interpolate(el[None], p)[0]
        coeffs = el.pi0_star @ dofs
        pts = el.quad_points
        recon = el.monomial_values @ coeffs
        assert np.abs(recon - p(pts[:, 0], pts[:, 1])).max() < 1e-12

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_interpolation_convergence_rate(self, k):
        """Mesh-wide L2 distance between a smooth function and the projected
        interpolant shrinks like h^{k+1} under refinement."""
        from polyvem.mesh import generate_distorted_square_mesh

        def u(x, y):
            return np.sin(np.pi * x) * np.sin(np.pi * y)

        errors, sizes = [], []
        for n in (8, 16, 32):
            mesh = generate_distorted_square_mesh(n, 0.2, seed=1)
            total = 0.0
            for geom in mesh.cell_groups:
                group = P.build_element(geom, k)
                pts, w = map_to_triangle(2 * k + 4, group.geom.triangles)
                coeffs = group.pi0_star @ P.interpolate(group, u)[..., None]
                diff = (group.basis.eval(pts) @ coeffs)[..., 0] - u(pts[..., 0], pts[..., 1])
                total += float(np.sum(w * diff**2))
            errors.append(np.sqrt(total))
            sizes.append(mesh.h)
        # the coarsest pair is preasymptotic; judge the finest pair
        rate = np.log(errors[-2] / errors[-1]) / np.log(sizes[-2] / sizes[-1])
        assert rate == pytest.approx(k + 1, abs=0.25)


def cell_elements(mesh, k):
    """The element of each cell, in cell order, built group by group."""
    groups = [P.build_element(geom, k) for geom in mesh.cell_groups]
    return [groups[g][pos] for g, pos in mesh.cell_slot]


class TestPositionAndScale:
    @pytest.mark.parametrize(
        "scale, shift", [(2.0**-10, (1e3, -1e3)), (2.0**-10, (1.0, 2.0)), (1e3, (-3.0, 0.5))]
    )
    @pytest.mark.parametrize("family", sorted(GROUP_MESHES))
    def test_operators_follow_the_cell(self, family, scale, shift, k):
        """D, the projections and Q of a scaled and shifted cell equal those
        of the cell itself (the gradient projection scales as 1/scale).  The
        quadrature and dof points stay in absolute coordinates, so rounding
        the shift against the smallest cell sets the bound.  On a triangle at
        k = 1, Q = I - D pi0 vanishes, so it is measured against the scale 1 of
        the identity, not against its own rounding noise."""
        mesh = GROUP_MESHES[family]()
        moved = PolyMesh(mesh.vertices * scale + np.array(shift), mesh.cells)
        h_min = min(g.diameter.min() for g in moved.cell_groups)
        tol = 1e-12 + 100 * np.finfo(float).eps * max(map(abs, shift)) / h_min
        fields = [("dof_matrix", 1.0), ("pi_grad_star", 1.0), ("pi0_star", 1.0),
                  ("pi0_grad_star", scale), ("stab_q", 1.0)]
        for el, el_moved in zip(cell_elements(mesh, k), cell_elements(moved, k)):
            q_vanishes = k == 1 and el.layout.num_vertices == 3
            for name, factor in fields:
                want, got = getattr(el, name), factor * getattr(el_moved, name)
                size = 1.0 if name == "stab_q" and q_vanishes else np.abs(want).max()
                assert np.abs(got - want).max() <= tol * size, name


class TestConditioning:
    def test_needle_cell_rejected(self):
        # the mesh layer already refuses a cell this degenerate
        import polyvem.mesh as M

        with pytest.raises(M.MeshError, match="degenerate"):
            PolyMesh([[0.0, 0.0], [1.0, 0.0], [1.0, 1e-14], [0.0, 5e-15]], [[0, 1, 2, 3]])

    def test_sliver_cell_condition(self):
        """Horizontal strips of the unit square, cells 1 and 3 slivers of
        height 1e-3 and 1e-4: assembly keeps every cell's mass-matrix
        condition number in cell order, and where slivers are unusable the
        error names the worst one."""
        from polyvem.problems import get_problem
        from polyvem.system import assemble

        levels = [0.0, 0.4, 0.401, 0.6, 0.6001, 1.0]
        vertices = [[x, y] for y in levels for x in (0.0, 1.0)]
        cells = [[2 * i, 2 * i + 1, 2 * i + 3, 2 * i + 2] for i in range(len(levels) - 1)]
        mesh = PolyMesh(vertices, cells)
        problem = get_problem("gaussian")

        groups = assemble(mesh, 1, problem).groups
        cond = np.array([groups[group].condition[pos] for group, pos in mesh.cell_slot])
        alone = [P.build_element(mesh.cell_geometry(ci)[None], 1).condition[0] for ci in range(5)]
        np.testing.assert_allclose(cond, alone, rtol=1e-12)
        assert cond[3] > cond[1] > 1e6 > max(cond[[0, 2, 4]])
        # both slivers exceed the bound at k = 2; the worst one is named
        with pytest.raises(P.VemError, match="^cell 3: .*condition"):
            assemble(mesh, 2, problem)

    def test_flat_cell_condition_diagnostic(self):
        geom = PolyMesh(
            [[0.0, 0.0], [1.0, 0.0], [1.0, 1e-7], [0.0, 1e-7]], [[0, 1, 2, 3]]
        ).cell_geometry(0)
        with pytest.raises(P.VemError, match="condition"):
            P.build_element(geom[None], 3)

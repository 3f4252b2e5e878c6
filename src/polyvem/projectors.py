"""Local virtual element spaces: degrees of freedom and projections.

For a polygonal cell K and order k in {1, 2, 3} the local space is known
only through its degrees of freedom:

* values at the vertices,
* values at the k-1 interior Gauss-Lobatto points of each edge (k > 1),
* scaled moments |K|^{-1} int_K w m_alpha for monomials up to degree k-2.

All computable operators are assembled from these dofs:

* ``pi_grad_star``  coefficients of the H1-type projection onto P_k,
* ``pi0_star``      coefficients of the L2 projection onto P_k,
* ``pi0_grad_star`` coefficients of the L2 projection of each gradient
                    component onto P_{k-1},

each as a (dim P x N) matrix acting on dof vectors.  Monomials are scaled
by the cell centroid and diameter so all matrices stay well conditioned.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import CellGeometry
from .quadrature import (
    edge_gauss_lobatto,
    gauss_lobatto,
    lobatto_interior_params,
    map_to_triangle,
    polygon_rule,
    triangle_rule,
)

__all__ = [
    "VemError",
    "ScaledMonomialBasis",
    "DofLayout",
    "LocalElement",
    "build_element",
    "interpolate",
    "polynomial_dimension",
]

SUPPORTED_ORDERS = (1, 2, 3)


class VemError(Exception):
    """Invalid order or numerically unusable element."""


def polynomial_dimension(degree: int) -> int:
    """dim P_degree in two variables; 0 for negative degree."""
    if degree < 0:
        return 0
    return (degree + 1) * (degree + 2) // 2


class ScaledMonomialBasis:
    """Monomials ((x - x_K)/h_K)^a ((y - y_K)/h_K)^b up to a total degree.

    Ordering is graded by total degree and, within a degree, by descending
    first exponent, so the first dim P_{d} columns are exactly the basis
    of P_{d} for every d <= degree (prefix property).
    """

    def __init__(self, degree: int, center: np.ndarray, diameter: float):
        if degree < 0:
            raise VemError("degree must be non-negative")
        self.degree = degree
        self.center = np.asarray(center, dtype=float)
        self.diameter = float(diameter)
        self.exponents = np.array(
            [(d - b, b) for d in range(degree + 1) for b in range(d + 1)], dtype=np.int64
        )

    @property
    def dim(self) -> int:
        return len(self.exponents)

    def index(self, a: int, b: int) -> int:
        d = a + b
        return d * (d + 1) // 2 + b

    def eval(self, points: np.ndarray) -> np.ndarray:
        """Vandermonde matrix (npoints x dim)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        xi = (pts[:, 0] - self.center[0]) / self.diameter
        eta = (pts[:, 1] - self.center[1]) / self.diameter
        cols = [xi ** int(a) * eta ** int(b) for a, b in self.exponents]
        return np.column_stack(cols)

    def eval_gradient(self, points: np.ndarray):
        """(d/dx, d/dy) of each monomial at the points; two (npts x dim) arrays."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        xi = (pts[:, 0] - self.center[0]) / self.diameter
        eta = (pts[:, 1] - self.center[1]) / self.diameter
        gx = np.zeros((len(pts), self.dim))
        gy = np.zeros((len(pts), self.dim))
        for j, (a, b) in enumerate(self.exponents):
            if a > 0:
                gx[:, j] = a / self.diameter * xi ** int(a - 1) * eta ** int(b)
            if b > 0:
                gy[:, j] = b / self.diameter * xi ** int(a) * eta ** int(b - 1)
        return gx, gy

    def derivative_map(self, axis: int) -> np.ndarray:
        """Matrix C with d(m_j)/dx_axis = sum_i C[i, j] m_i (same basis)."""
        c = np.zeros((self.dim, self.dim))
        for j, (a, b) in enumerate(self.exponents):
            if axis == 0 and a > 0:
                c[self.index(a - 1, b), j] = a / self.diameter
            elif axis == 1 and b > 0:
                c[self.index(a, b - 1), j] = b / self.diameter
        return c

    def laplacian_map(self) -> np.ndarray:
        """Matrix C with Laplacian(m_j) = sum_i C[i, j] m_i."""
        c = np.zeros((self.dim, self.dim))
        h2 = self.diameter**2
        for j, (a, b) in enumerate(self.exponents):
            if a >= 2:
                c[self.index(a - 2, b), j] += a * (a - 1) / h2
            if b >= 2:
                c[self.index(a, b - 2), j] += b * (b - 1) / h2
        return c


@dataclass(frozen=True)
class DofLayout:
    """Local dof numbering: vertices, then edge points, then moments."""

    k: int
    num_vertices: int

    @property
    def num_edge_dofs(self) -> int:
        return self.num_vertices * (self.k - 1)

    @property
    def num_moments(self) -> int:
        return polynomial_dimension(self.k - 2)

    @property
    def size(self) -> int:
        return self.num_vertices * self.k + self.num_moments

    def vertex_dof(self, i: int) -> int:
        return i

    def edge_dof(self, edge: int, j: int) -> int:
        return self.num_vertices + edge * (self.k - 1) + j

    def edge_dofs(self, edge: int) -> list[int]:
        return [self.edge_dof(edge, j) for j in range(self.k - 1)]

    @property
    def moment_offset(self) -> int:
        return self.num_vertices * self.k

    def moment_dof(self, alpha: int) -> int:
        return self.moment_offset + alpha


@dataclass
class LocalElement:
    """All computable local operators of one cell.

    Matrices act on local dof vectors (length ``layout.size``); projector
    coefficient matrices return expansions in ``basis``.  The forms rule
    (``quad_points``, degree 2k+2 by default) and the load rule
    (``load_points``, degree 2k) are mapped onto the same ``triangles``.
    """

    k: int
    geom: CellGeometry
    basis: ScaledMonomialBasis
    layout: DofLayout
    boundary_dof_points: np.ndarray  # (num_vertices * k, 2)
    triangles: np.ndarray  # (T, 3, 2) triangulation of the cell
    quad_points: np.ndarray
    quad_weights: np.ndarray
    load_points: np.ndarray
    load_weights: np.ndarray
    monomial_values: np.ndarray  # basis at quad points
    mass_monomials: np.ndarray  # H: int m_i m_j
    dof_matrix: np.ndarray  # D: dof_i(m_j)
    b_matrix: np.ndarray  # boundary/volume functionals defining pi_grad
    pi_grad_star: np.ndarray  # dim P_k x N
    pi0_star: np.ndarray  # dim P_k x N
    pi0_grad_star: tuple[np.ndarray, np.ndarray]  # dim P_{k-1} x N each
    stab_q: np.ndarray  # I - D @ pi0_star

    @property
    def num_dofs(self) -> int:
        return self.layout.size


def _boundary_dof_points(geom: CellGeometry, k: int, layout: DofLayout) -> np.ndarray:
    pts = np.zeros((layout.num_vertices * k, 2))
    pts[: layout.num_vertices] = geom.coords
    params = lobatto_interior_params(k)
    m = layout.num_vertices
    for e in range(m):
        a, b = geom.coords[e], geom.coords[(e + 1) % m]
        for j, t in enumerate(params):
            pts[layout.edge_dof(e, j)] = a + t * (b - a)
    return pts


def build_element(geom: CellGeometry, k: int, quad_order: int | None = None) -> LocalElement:
    """Assemble dof, projection and stabilization operators for one cell."""
    if k not in SUPPORTED_ORDERS:
        raise VemError(f"order k={k} not supported; choose one of {SUPPORTED_ORDERS}")
    basis = ScaledMonomialBasis(k, geom.centroid, geom.diameter)
    m = len(geom.coords)
    layout = DofLayout(k=k, num_vertices=m)
    nk = basis.dim
    nk1 = polynomial_dimension(k - 1)
    nk2 = polynomial_dimension(k - 2)
    n_dofs = layout.size
    area = geom.area

    rule = polygon_rule(geom.coords, quad_order if quad_order is not None else 2 * k + 2)
    # (f, pi0 phi) has pi0 phi in P_k: degree 2k is exact for every f in P_k
    load_points, load_weights = map_to_triangle(triangle_rule(2 * k), rule.triangles)
    vk = basis.eval(rule.points)
    mass = vk.T @ (rule.weights[:, None] * vk)
    mass = 0.5 * (mass + mass.T)
    cond = np.linalg.cond(mass)
    if cond > 1e12:
        raise VemError(
            f"monomial mass matrix condition {cond:.2e} exceeds 1e12; "
            "cell geometry is numerically unusable"
        )

    bpts = _boundary_dof_points(geom, k, layout)

    # D: dofs applied to monomials
    dmat = np.zeros((n_dofs, nk))
    dmat[: m * k] = basis.eval(bpts)
    if nk2:
        dmat[layout.moment_offset :] = mass[:nk2, :] / area

    # per-edge Gauss-Lobatto nodes coincide with boundary dofs: the rule
    # with k+1 nodes is exact to degree 2k-1, enough for w * (grad m . n)
    # and w * m_beta on each straight edge
    ref_nodes, _ = gauss_lobatto(k + 1)
    edge_rules = []
    for e in range(m):
        a, b = geom.coords[e], geom.coords[(e + 1) % m]
        er = edge_gauss_lobatto(a, b, k + 1)
        node_dofs = (
            [layout.vertex_dof(e)] + layout.edge_dofs(e) + [layout.vertex_dof((e + 1) % m)]
        )
        edge_rules.append((er, node_dofs, geom.normals[e]))

    # B: rows = integration-by-parts functionals of grad-projection
    bmat = np.zeros((nk, n_dofs))
    lap = basis.laplacian_map()
    for er, node_dofs, normal in edge_rules:
        gx, gy = basis.eval_gradient(er.points)
        flux = gx * normal[0] + gy * normal[1]  # (k+1) x nk
        for row in range(1, nk):
            for node, dof in enumerate(node_dofs):
                bmat[row, dof] += er.weights[node] * flux[node, row]
    if nk2:
        for row in range(1, nk):
            for gamma in range(nk):
                c = lap[gamma, row]
                if c != 0.0:
                    bmat[row, layout.moment_dof(gamma)] -= c * area
    # projection-fixing row: vertex average (k=1) or cell mean (k>1)
    if k == 1:
        bmat[0, :m] = 1.0 / m
    else:
        bmat[0] = 0.0
        bmat[0, layout.moment_dof(0)] = 1.0

    gmat = bmat @ dmat
    pi_grad_star = np.linalg.solve(gmat, bmat)

    # L2 projection onto P_k
    if k == 1:
        pi0_star = pi_grad_star.copy()
    else:
        cmat = np.zeros((nk, n_dofs))
        for alpha in range(nk2):
            cmat[alpha, layout.moment_dof(alpha)] = area
        h22 = mass[:nk2, :nk2]
        for alpha in range(nk2, nk):
            p = np.linalg.solve(h22, mass[:nk2, alpha])
            q = np.zeros(nk)
            q[alpha] = 1.0
            q[:nk2] -= p
            cmat[alpha] = (mass @ q) @ pi_grad_star
            for gamma in range(nk2):
                cmat[alpha, layout.moment_dof(gamma)] += area * p[gamma]
        pi0_star = np.linalg.solve(mass, cmat)

    # L2 projection of each gradient component onto P_{k-1}
    basis_k1_mass = mass[:nk1, :nk1]
    pi0_grad = []
    for axis in range(2):
        rhs = np.zeros((nk1, n_dofs))
        dmap = basis.derivative_map(axis)[:nk2, :nk1] if nk2 else None
        for er, node_dofs, normal in edge_rules:
            vals = basis.eval(er.points)[:, :nk1]
            for beta in range(nk1):
                for node, dof in enumerate(node_dofs):
                    rhs[beta, dof] += er.weights[node] * vals[node, beta] * normal[axis]
        if nk2:
            for beta in range(nk1):
                for gamma in range(nk2):
                    c = dmap[gamma, beta]
                    if c != 0.0:
                        rhs[beta, layout.moment_dof(gamma)] -= c * area
        pi0_grad.append(np.linalg.solve(basis_k1_mass, rhs))

    stab_q = np.eye(n_dofs) - dmat @ pi0_star

    return LocalElement(
        k=k,
        geom=geom,
        basis=basis,
        layout=layout,
        boundary_dof_points=bpts,
        triangles=rule.triangles,
        quad_points=rule.points,
        quad_weights=rule.weights,
        load_points=load_points,
        load_weights=load_weights,
        monomial_values=vk,
        mass_monomials=mass,
        dof_matrix=dmat,
        b_matrix=bmat,
        pi_grad_star=pi_grad_star,
        pi0_star=pi0_star,
        pi0_grad_star=(pi0_grad[0], pi0_grad[1]),
        stab_q=stab_q,
    )


def grad_projection_gram(element: LocalElement) -> np.ndarray:
    """G with first row replaced: gradient Gram matrix of the monomials."""
    basis = element.basis
    cx, cy = basis.derivative_map(0), basis.derivative_map(1)
    g = cx.T @ element.mass_monomials @ cx + cy.T @ element.mass_monomials @ cy
    if element.k == 1:
        g[0] = element.dof_matrix[: element.layout.num_vertices].mean(axis=0)
    else:
        g[0] = element.mass_monomials[0] / element.geom.area
    return g


def interpolate(element: LocalElement, fn) -> np.ndarray:
    """Dof vector of a smooth function: point values plus scaled moments."""
    dofs = np.zeros(element.num_dofs)
    pts = element.boundary_dof_points
    dofs[: len(pts)] = fn(pts[:, 0], pts[:, 1])
    nm = element.layout.num_moments
    if nm:
        vals = fn(element.quad_points[:, 0], element.quad_points[:, 1])
        weighted = element.quad_weights * vals
        dofs[element.layout.moment_offset :] = (
            element.monomial_values[:, :nm].T @ weighted
        ) / element.geom.area
    return dofs

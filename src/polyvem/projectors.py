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

The nodes of the (k+1)-point Gauss-Lobatto rule on each edge are exactly
the boundary dofs: the two end vertices and the edge's k-1 interior
points.  ``DofLayout.edge_nodes`` is the (m, k+1) array of these local dof
indices, edge by edge in node order (vertex e, the k-1 interior dofs of
edge e, vertex e+1).  Scattering each edge's Lobatto weights times its
outward normal through that array gives one weighted normal per boundary
dof, a vertex summing the contributions of its two edges, so every
boundary integral the projections need is a weighted sum of the basis at
the boundary dof points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import CellGeometry
from .quadrature import (
    gauss_lobatto,
    lobatto_edge_points,
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
        scaled = (pts - self.center) / self.diameter
        return np.prod(scaled[:, None, :] ** self.exponents, axis=2)

    def eval_gradient(self, points: np.ndarray):
        """(d/dx, d/dy) of each monomial at the points; two (npts x dim) arrays."""
        vals = self.eval(points)
        return vals @ self.derivative_map(0), vals @ self.derivative_map(1)

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
        cx, cy = self.derivative_map(0), self.derivative_map(1)
        return cx @ cx + cy @ cy


@dataclass(frozen=True)
class DofLayout:
    """Local dof numbering: vertices, then edge points, then moments."""

    k: int
    num_vertices: int

    @property
    def num_moments(self) -> int:
        return polynomial_dimension(self.k - 2)

    @property
    def size(self) -> int:
        return self.num_vertices * self.k + self.num_moments

    @property
    def moment_offset(self) -> int:
        return self.num_vertices * self.k

    @property
    def edge_nodes(self) -> np.ndarray:
        """(m, k+1) local dofs at the Lobatto nodes of each edge, in node
        order: vertex e, the k-1 interior dofs of edge e, vertex e+1."""
        m, k = self.num_vertices, self.k
        interior = np.arange(m, m * k).reshape(m, k - 1)
        return np.column_stack([np.arange(m), interior, (np.arange(m) + 1) % m])


@dataclass
class LocalElement:
    """All computable local operators of one cell.

    Matrices act on local dof vectors (length ``layout.size``); projector
    coefficient matrices return expansions in ``basis``.  The forms rule
    (``quad_points``, degree 2k+2) and the load rule (``load_points``,
    degree 2k) are mapped onto the same ``triangles``.
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


def build_element(geom: CellGeometry, k: int) -> LocalElement:
    """Assemble dof, projection and stabilization operators for one cell."""
    if k not in SUPPORTED_ORDERS:
        raise VemError(f"order k={k} not supported; choose one of {SUPPORTED_ORDERS}")
    basis = ScaledMonomialBasis(k, geom.centroid, geom.diameter)
    m = len(geom.coords)
    layout = DofLayout(k=k, num_vertices=m)
    nk = basis.dim
    nk1 = polynomial_dimension(k - 1)
    nk2 = layout.num_moments
    nb = layout.moment_offset  # boundary dofs come first, moments after them
    n_dofs = layout.size
    area = geom.area

    rule = polygon_rule(geom.coords, 2 * k + 2)
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

    edge_points = lobatto_edge_points(geom.coords, np.roll(geom.coords, -1, axis=0), k)
    bpts = np.concatenate([geom.coords, edge_points.reshape(-1, 2)])
    vb = basis.eval(bpts)
    gx, gy = basis.eval_gradient(bpts)

    # Lobatto weight times outward normal per boundary dof: the (k+1)-node
    # rule is exact to degree 2k-1, enough for w * (grad m . n) and
    # w * m_beta on each straight edge
    _, ref_weights = gauss_lobatto(k + 1)
    edge_weights = ref_weights * (geom.edge_lengths[:, None] / 2.0)  # (m, k+1)
    wn = np.zeros((nb, 2))
    np.add.at(wn, layout.edge_nodes, edge_weights[..., None] * geom.normals[:, None])

    # D: dofs applied to monomials
    dmat = np.zeros((n_dofs, nk))
    dmat[:nb] = vb
    dmat[nb:] = mass[:nk2] / area

    # B: integration-by-parts functionals of the grad-projection, the
    # boundary flux of each monomial less the moments of its Laplacian
    bmat = np.zeros((nk, n_dofs))
    bmat[1:, :nb] = (gx[:, 1:] * wn[:, :1] + gy[:, 1:] * wn[:, 1:]).T
    bmat[1:, nb:] = -area * basis.laplacian_map()[:nk2, 1:].T
    # projection-fixing row: vertex average (k=1) or cell mean (k>1)
    if k == 1:
        bmat[0, :m] = 1.0 / m
    else:
        bmat[0, nb] = 1.0

    gmat = bmat @ dmat
    pi_grad_star = np.linalg.solve(gmat, bmat)

    # L2 projection onto P_k: moments give (v, m_alpha) up to degree k-2;
    # above it, (v, m_alpha) is (pi_grad v, m_alpha - p_alpha) + (v, p_alpha)
    # with p_alpha the L2 projection of m_alpha onto P_{k-2}
    if k == 1:
        pi0_star = pi_grad_star.copy()
    else:
        p = np.linalg.solve(mass[:nk2, :nk2], mass[:nk2, nk2:])
        q = np.eye(nk)[:, nk2:]
        q[:nk2] -= p
        cmat = np.zeros((nk, n_dofs))
        cmat[:nk2, nb:] = area * np.eye(nk2)
        cmat[nk2:] = (mass @ q).T @ pi_grad_star
        cmat[nk2:, nb:] += area * p.T
        pi0_star = np.linalg.solve(mass, cmat)

    # L2 projection of each gradient component onto P_{k-1}: the boundary
    # term (v, m_beta n_axis) less the moments of d(m_beta)/dx_axis
    rhs = np.zeros((2, nk1, n_dofs))
    rhs[:, :, :nb] = np.einsum("ib,id->dbi", vb[:, :nk1], wn)
    dmaps = np.stack([basis.derivative_map(0), basis.derivative_map(1)])
    rhs[:, :, nb:] = -area * dmaps[:, :nk2, :nk1].transpose(0, 2, 1)
    pi0_grad = np.linalg.solve(mass[:nk1, :nk1], rhs)

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

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

Elements are built a group at a time, one per cell group of the mesh
(``PolyMesh.cell_groups``): cells with the same vertex and triangle counts
share every array shape, so D, B, G = BD, the projections and Q of a
group's G cells are (G, ., .) stacks from one pass of array expressions
and batched solves, and the volume rules are mapped onto the triangles
the mesh stored.  A single cell is a group of one, ``geom[None]``.

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

from dataclasses import dataclass, fields, replace
from functools import lru_cache

import numpy as np

from .mesh import CellGeometry
from .quadrature import (
    gauss_lobatto,
    lobatto_edge_points,
    map_to_triangle,
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


@lru_cache(maxsize=None)
def _unit_derivative_maps(degree: int) -> np.ndarray:
    """(2, dim, dim) derivative maps of the monomials of unit diameter: the
    derivative of x^a y^b along x is a x^(a-1) y^b, along y b x^a y^(b-1)."""
    basis = ScaledMonomialBasis(degree, np.zeros(2), 1.0)
    maps = np.zeros((2, basis.dim, basis.dim))
    for axis, lowered in enumerate(basis.exponents - np.eye(2, dtype=np.int64)[:, None]):
        j = np.flatnonzero(lowered[:, axis] >= 0)
        maps[axis, basis.index(*lowered[j].T), j] = basis.exponents[j, axis]
    maps.flags.writeable = False
    return maps


class ScaledMonomialBasis:
    """Monomials ((x - x_K)/h_K)^a ((y - y_K)/h_K)^b up to a total degree.

    Ordering is graded by total degree and, within a degree, by descending
    first exponent, so the first dim P_{d} columns are exactly the basis
    of P_{d} for every d <= degree (prefix property).  Center (..., 2) and
    diameter (...) may be stacked over cells, adding their leading axes.
    """

    def __init__(self, degree: int, center: np.ndarray, diameter):
        if degree < 0:
            raise VemError("degree must be non-negative")
        self.degree = degree
        self.center = np.asarray(center, dtype=float)
        self.diameter = np.asarray(diameter, dtype=float)
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
        """Vandermonde matrix (..., npoints, dim) at points (..., npoints, 2)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        scaled = (pts - self.center[..., None, :]) / self.diameter[..., None, None]

        def powers(c):  # c^0, ..., c^degree by repeated products
            out = np.ones(c.shape + (self.degree + 1,))
            np.cumprod(np.broadcast_to(c[..., None], out[..., 1:].shape), axis=-1, out=out[..., 1:])
            return out

        exps = self.exponents
        return powers(scaled[..., 0])[..., exps[:, 0]] * powers(scaled[..., 1])[..., exps[:, 1]]

    def derivative_map(self, axis: int) -> np.ndarray:
        """Matrix C with d(m_j)/dx_axis = sum_i C[i, j] m_i (same basis)."""
        return _unit_derivative_maps(self.degree)[axis] / self.diameter[..., None, None]

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
    """All computable local operators of a group of cells.

    Every array field (and ``geom``) has a leading axis over the group's
    cells; ``group[i]`` is the view of cell i, with the shapes listed here.
    Matrices act on local dof vectors (length ``layout.size``); projector
    coefficient matrices return expansions in ``basis``.  One rule of
    degree 2k (``quad_points``, ``quad_weights``), mapped onto
    ``geom.triangles``, serves every integral over the cell.
    """

    k: int
    geom: CellGeometry
    layout: DofLayout
    boundary_dof_points: np.ndarray  # (num_vertices * k, 2)
    quad_points: np.ndarray
    quad_weights: np.ndarray
    monomial_values: np.ndarray  # basis at quad points
    mass_monomials: np.ndarray  # H: int m_i m_j
    dof_matrix: np.ndarray  # D: dof_i(m_j)
    b_matrix: np.ndarray  # boundary/volume functionals defining pi_grad
    pi_grad_star: np.ndarray  # dim P_k x N
    pi0_star: np.ndarray  # dim P_k x N
    pi0_grad_star: np.ndarray  # 2 x dim P_{k-1} x N: x and y components
    stab_q: np.ndarray  # I - D @ pi0_star
    condition: float  # condition number of mass_monomials

    @property
    def num_dofs(self) -> int:
        return self.layout.size

    @property
    def basis(self) -> ScaledMonomialBasis:
        return ScaledMonomialBasis(self.k, self.geom.centroid, self.geom.diameter)

    def __getitem__(self, i) -> LocalElement:
        stacked = [f.name for f in fields(self) if f.name not in ("k", "layout")]
        return replace(self, **{name: getattr(self, name)[i] for name in stacked})


def build_element(geom: CellGeometry, k: int) -> LocalElement:
    """Dof, projection and stabilization operators of the G cells of a cell
    group ``geom``; a ``VemError`` names the worst cell if a monomial mass
    matrix is too ill-conditioned."""
    if k not in SUPPORTED_ORDERS:
        raise VemError(f"order k={k} not supported; choose one of {SUPPORTED_ORDERS}")
    basis = ScaledMonomialBasis(k, geom.centroid, geom.diameter)
    num_cells, m = geom.coords.shape[:2]
    layout = DofLayout(k=k, num_vertices=m)
    nk = basis.dim
    nk1 = polynomial_dimension(k - 1)
    nk2 = layout.num_moments
    nb = layout.moment_offset  # boundary dofs come first, moments after them
    n_dofs = layout.size
    area = geom.area[:, None, None]

    # degree 2k is exact for H = int m_i m_j, and for (f, pi0 phi) with f in P_k
    quad_points, quad_weights = map_to_triangle(triangle_rule(2 * k), geom.triangles)
    vk = basis.eval(quad_points)
    mass = np.swapaxes(vk, 1, 2) @ (quad_weights[..., None] * vk)
    mass = 0.5 * (mass + np.swapaxes(mass, 1, 2))
    cond = np.linalg.cond(mass)
    worst = int(np.argmax(cond))
    if not cond[worst] <= 1e12:
        raise VemError(
            f"cell {geom.index[worst]}: monomial mass matrix condition {cond[worst]:.2e} "
            "exceeds 1e12; cell geometry is numerically unusable"
        )

    edge_points = lobatto_edge_points(geom.coords, np.roll(geom.coords, -1, axis=1), k)
    bpts = np.concatenate([geom.coords, edge_points.reshape(num_cells, -1, 2)], axis=1)
    vb = basis.eval(bpts)
    dmaps = np.stack([basis.derivative_map(0), basis.derivative_map(1)], axis=1)
    gx, gy = vb @ dmaps[:, 0], vb @ dmaps[:, 1]  # gradients of the monomials

    # Lobatto weight times outward normal per boundary dof: the (k+1)-node
    # rule is exact to degree 2k-1, enough for w * (grad m . n) and
    # w * m_beta on each straight edge
    _, ref_weights = gauss_lobatto(k + 1)
    edge_weights = ref_weights * (geom.edge_lengths[..., None] / 2.0)  # (G, m, k+1)
    wn = np.zeros((num_cells, nb, 2))
    weighted_normals = edge_weights[..., None] * geom.normals[:, :, None]
    np.add.at(wn, (slice(None), layout.edge_nodes), weighted_normals)

    # D: dofs applied to monomials
    dmat = np.zeros((num_cells, n_dofs, nk))
    dmat[:, :nb] = vb
    dmat[:, nb:] = mass[:, :nk2] / area

    # B: integration-by-parts functionals of the grad-projection, the
    # boundary flux of each monomial less the moments of its Laplacian
    bmat = np.zeros((num_cells, nk, n_dofs))
    bmat[:, 1:, :nb] = np.swapaxes(gx[..., 1:] * wn[..., :1] + gy[..., 1:] * wn[..., 1:], 1, 2)
    bmat[:, 1:, nb:] = -area * np.swapaxes(basis.laplacian_map()[:, :nk2, 1:], 1, 2)
    # projection-fixing row: vertex average (k=1) or cell mean (k>1)
    if k == 1:
        bmat[:, 0, :m] = 1.0 / m
    else:
        bmat[:, 0, nb] = 1.0

    gmat = bmat @ dmat
    pi_grad_star = np.linalg.solve(gmat, bmat)

    # L2 projection onto P_k: moments give (v, m_alpha) up to degree k-2;
    # above it, (v, m_alpha) is (pi_grad v, m_alpha - p_alpha) + (v, p_alpha)
    # with p_alpha the L2 projection of m_alpha onto P_{k-2}
    if k == 1:
        pi0_star = pi_grad_star.copy()
    else:
        p = np.linalg.solve(mass[:, :nk2, :nk2], mass[:, :nk2, nk2:])
        q = np.tile(np.eye(nk)[:, nk2:], (num_cells, 1, 1))
        q[:, :nk2] -= p
        cmat = np.zeros((num_cells, nk, n_dofs))
        cmat[:, :nk2, nb:] = area * np.eye(nk2)
        cmat[:, nk2:] = np.swapaxes(mass @ q, 1, 2) @ pi_grad_star
        cmat[:, nk2:, nb:] += area * np.swapaxes(p, 1, 2)
        pi0_star = np.linalg.solve(mass, cmat)

    # L2 projection of each gradient component onto P_{k-1}: the boundary
    # term (v, m_beta n_axis) less the moments of d(m_beta)/dx_axis
    rhs = np.zeros((num_cells, 2, nk1, n_dofs))
    rhs[..., :nb] = np.einsum("gib,gid->gdbi", vb[..., :nk1], wn)
    rhs[..., nb:] = -area[..., None] * np.swapaxes(dmaps[..., :nk2, :nk1], 2, 3)
    pi0_grad = np.linalg.solve(mass[:, None, :nk1, :nk1], rhs)

    stab_q = np.eye(n_dofs) - dmat @ pi0_star

    return LocalElement(
        k=k,
        geom=geom,
        layout=layout,
        boundary_dof_points=bpts,
        quad_points=quad_points,
        quad_weights=quad_weights,
        monomial_values=vk,
        mass_monomials=mass,
        dof_matrix=dmat,
        b_matrix=bmat,
        pi_grad_star=pi_grad_star,
        pi0_star=pi0_star,
        pi0_grad_star=pi0_grad,
        stab_q=stab_q,
        condition=cond,
    )


def interpolate(element: LocalElement, fn) -> np.ndarray:
    """(G, N) dof vectors of a smooth function on the cells of a group:
    point values plus scaled moments."""
    def at(points):  # fn at points stacked as (G, m, 2), called once
        return np.asarray(fn(*points.reshape(-1, 2).T), dtype=float).reshape(points.shape[:-1])

    pts = element.boundary_dof_points
    dofs = np.zeros((len(pts), element.num_dofs))
    dofs[:, : pts.shape[1]] = at(pts)
    weighted = element.quad_weights * at(element.quad_points)
    moments = weighted[:, None, :] @ element.monomial_values[..., : element.layout.num_moments]
    dofs[:, element.layout.moment_offset :] = moments[:, 0] / element.geom.area[:, None]
    return dofs

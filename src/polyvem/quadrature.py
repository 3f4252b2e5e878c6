"""Quadrature on edges, triangles and polygonal cells.

Triangle rules are collapsed (Duffy-type) tensor Gauss-Legendre rules, so
any requested order is available without tabulated constants.  Polygon
rules triangulate the cell (a fan of m-2 triangles from vertex 0 for
convex cells, ear clipping for cells with reflex vertices) and map the
triangle rule to each piece.  Cells are triangulated as stacks of one
vertex count, split by triangle count, so that every rule of a stack is
one array of shape (cells, points, 2).  A triangulation is kept and
reused: mapping several rules onto the same triangles costs no second
triangulation.
The reference Gauss-Lobatto rule on [-1, 1] serves the cell edges: the
nodes of its (k+1)-point rule, mapped onto an edge, are the vertex and
edge degrees of freedom of the order-k virtual space, which makes
boundary integrals of traces diagonal in those dofs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial import legendre as _leg

from .mesh import polygon_geometry


class QuadratureError(Exception):
    """Raised when a rule cannot be constructed (degenerate geometry)."""


# ---------------------------------------------------------------------------
# reference triangle rules
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TriangleRule:
    """Rule on the reference triangle (0,0)-(1,0)-(0,1).

    Parameters
    ----------
    order : int
        Largest total polynomial degree integrated exactly.
    points : ndarray, shape (n, 3)
        Barycentric coordinates of the nodes.
    weights : ndarray, shape (n,)
        Normalized weights, summing to 1.  The physical weight on a
        triangle T is ``weights * area(T)``.
    """

    order: int
    points: np.ndarray
    weights: np.ndarray


@lru_cache(maxsize=None)
def triangle_rule(order: int) -> TriangleRule:
    """Build a rule exact for bivariate polynomials up to ``order``.

    Uses the square-to-triangle collapse x = u, y = v(1-u) with Jacobian
    (1-u): a degree-d integrand becomes degree d+1 in u and d in v, so
    Gauss-Legendre with ceil((d+2)/2) x ceil((d+1)/2) points is exact.
    """
    if order < 0:
        raise ValueError("quadrature order must be >= 0")
    nu = (order + 3) // 2
    nv = (order + 2) // 2
    xu, wu = _leg.leggauss(nu)
    xv, wv = _leg.leggauss(nv)
    # map [-1,1] -> [0,1]
    su, pu = (xu + 1.0) / 2.0, wu / 2.0
    sv, pv = (xv + 1.0) / 2.0, wv / 2.0
    u = np.repeat(su, nv)
    v = np.tile(sv, nu)
    w = np.repeat(pu, nv) * np.tile(pv, nu) * (1.0 - u)
    x = u
    y = v * (1.0 - u)
    bary = np.column_stack([1.0 - x - y, x, y])
    weights = w / w.sum()
    return TriangleRule(order=order, points=bary, weights=weights)


def map_to_triangle(rule: TriangleRule, tri: np.ndarray):
    """Map a reference rule to the physical triangle ``tri`` (3x2 array), or
    to each triangle of a stack ``tri`` of shape (..., T, 3, 2).

    Returns (points, weights), the points of a stack triangle by triangle,
    (..., T * n, 2) and (..., T * n), with weights summing to the covered
    area.  Orientation does not matter; the absolute area is used.
    """
    tri = np.asarray(tri, dtype=float)
    area = np.abs(_signed_areas(tri))
    pts = rule.points @ tri
    lead = tri.shape[:-3]
    return pts.reshape(*lead, -1, 2), (area[..., None] * rule.weights).reshape(*lead, -1)


def at_points(fn, points: np.ndarray, *args) -> np.ndarray:
    """``fn(x, y, *args)`` at points stacked as (..., 2), called once on the
    flat coordinates; the values keep the points' leading shape."""
    x, y = points.reshape(-1, 2).T
    values = np.asarray(fn(x, y, *args), dtype=float)
    return values.reshape(points.shape[:-1] + values.shape[1:])


# ---------------------------------------------------------------------------
# polygon triangulation
# ---------------------------------------------------------------------------


def _signed_areas(tris: np.ndarray) -> np.ndarray:
    """Signed areas of a triangle (3x2) or of each triangle of a stack."""
    e1 = tris[..., 1, :] - tris[..., 0, :]
    e2 = tris[..., 2, :] - tris[..., 0, :]
    return 0.5 * (e1[..., 0] * e2[..., 1] - e1[..., 1] * e2[..., 0])


def triangulate_polygons(coords: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Split a (G, m, 2) stack of simple CCW polygons into triangles.

    Convex polygons (collinear vertices allowed) get a fan from vertex 0 in
    one array pass: m-2 triangles, less the zero-area ones of a straight run
    through vertex 0.  Polygons with a reflex vertex are ear-clipped.  One
    (ascending rows, (rows, T, 3, 2) triangles) pair per triangle count T.
    """
    coords = np.asarray(coords, dtype=float)
    n = coords.shape[1]
    scale = np.ptp(coords, axis=1).max(axis=1)
    tol = 1e-12 * scale * scale
    poly_area = polygon_geometry(coords)[0]
    if (poly_area <= tol).any():
        raise QuadratureError("polygon is not CCW or has (near-)zero area")
    prev = coords - np.roll(coords, 1, axis=1)
    nxt = np.roll(coords, -1, axis=1) - coords
    turns = prev[..., 0] * nxt[..., 1] - prev[..., 1] * nxt[..., 0]
    convex = np.all(turns >= -tol[:, None], axis=1)
    apex = np.broadcast_to(coords[:, :1], (len(coords), n - 2, 2))
    fan = np.stack([apex, coords[:, 1:-1], coords[:, 2:]], axis=2)
    keep = _signed_areas(fan) > tol[:, None]
    counts = keep.sum(axis=1)
    clipped = {r: _ear_clip(coords[r], tol[r]) for r in np.flatnonzero(~convex)}
    for r, tris in clipped.items():
        counts[r] = len(tris)

    out = []
    for t in np.unique(counts):
        rows = np.flatnonzero(counts == t)
        tris = np.empty((len(rows), t, 3, 2))
        fanned = convex[rows]
        tris[fanned] = fan[rows[fanned]][keep[rows[fanned]]].reshape(-1, t, 3, 2)
        for i in np.flatnonzero(~fanned):
            tris[i] = clipped[rows[i]]
        covered = _signed_areas(tris).sum(axis=1)
        area = poly_area[rows]
        if (np.abs(covered - area) > 1e-9 * np.maximum(area, scale[rows] ** 2)).any():
            raise QuadratureError(
                "triangulation failure: triangle areas do not cover the polygon "
                "(self-intersecting loop?)"
            )
        out.append((rows, tris))
    return out


def _strictly_inside(p: np.ndarray, a, b, c, tol: float) -> np.ndarray:
    """Mask of the points p (n, 2) strictly inside the CCW triangle abc
    (boundary points do not block an ear)."""

    def side(u, v):
        return (v[0] - u[0]) * (p[:, 1] - u[1]) - (v[1] - u[1]) * (p[:, 0] - u[0])

    return (side(a, b) > tol) & (side(b, c) > tol) & (side(c, a) > tol)


def _ear_clip(coords: np.ndarray, tol: float) -> np.ndarray:
    idx = list(range(len(coords)))
    tris: list[np.ndarray] = []
    while len(idx) > 3:  # every pass clips an ear or drops a vertex, or raises
        m = len(idx)
        for j in range(m):
            ia, ib, ic = idx[j - 1], idx[j], idx[(j + 1) % m]
            a, b, c = coords[ia], coords[ib], coords[ic]
            cross = (b[0] - a[0]) * (c[1] - b[1]) - (b[1] - a[1]) * (c[0] - b[0])
            if cross < -tol:
                continue  # reflex tip
            if cross <= tol:
                # collinear: a hanging vertex on a straight run; drop it
                if np.all(np.minimum(a, c) - 1e-12 <= b) and np.all(b <= np.maximum(a, c) + 1e-12):
                    idx.pop(j)
                    break
                continue
            others = coords[[other for other in idx if other not in (ia, ib, ic)]]
            if not _strictly_inside(others, a, b, c, tol).any():
                tris.append(np.array([a, b, c]))
                idx.pop(j)
                break
        else:
            raise QuadratureError("triangulation failure: no ear found (tangled polygon?)")
    last = coords[idx]
    if _signed_areas(last) > tol:
        tris.append(np.array(last))
    return np.array(tris).reshape(-1, 3, 2)


# ---------------------------------------------------------------------------
# Gauss-Lobatto rules
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def gauss_lobatto(npoints: int):
    """Reference Gauss-Lobatto nodes/weights on [-1, 1] (weights sum to 2)."""
    if npoints < 2:
        raise ValueError("Gauss-Lobatto needs at least 2 points")
    if npoints == 2:
        return np.array([-1.0, 1.0]), np.array([1.0, 1.0])
    # interior nodes are the roots of P'_{n-1}
    series = np.zeros(npoints)
    series[-1] = 1.0
    interior = np.sort(_leg.legroots(_leg.legder(series)))
    nodes = np.concatenate([[-1.0], np.real(interior), [1.0]])
    pvals = _leg.legval(nodes, series)
    weights = 2.0 / (npoints * (npoints - 1) * pvals**2)
    return nodes, weights


def lobatto_edge_points(starts: np.ndarray, ends: np.ndarray, k: int) -> np.ndarray:
    """(..., k-1, 2) interior nodes of the (k+1)-point Lobatto rule on each
    segment from ``starts[i]`` to ``ends[i]`` (stacked as (..., 2)): the
    edge dofs of order k."""
    nodes, _ = gauss_lobatto(k + 1)
    t = (nodes[1:-1] + 1.0) / 2.0
    return starts[..., None, :] + t[:, None] * (ends - starts)[..., None, :]

"""Quadrature on edges, triangles and polygonal cells.

Triangle rules are collapsed (Duffy-type) tensor Gauss-Legendre rules, so
any requested order is available without tabulated constants.  Polygon
rules triangulate the cell (a fan of m-2 triangles from vertex 0 for
convex cells, ear clipping for cells with reflex vertices) and map the
triangle rule to each piece.  A triangulation can be kept and reused:
mapping several rules onto the same triangles costs no second
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

from .mesh import signed_area


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
    to each triangle of a stack ``tri`` of shape (T, 3, 2).

    Returns (points, weights), the points of a stack triangle by triangle,
    with weights summing to the covered area.  Orientation does not matter;
    the absolute area is used.
    """
    tri = np.asarray(tri, dtype=float)
    area = np.abs(_signed_areas(tri))
    pts = rule.points @ tri
    return pts.reshape(-1, 2), (area[..., None] * rule.weights).ravel()


# ---------------------------------------------------------------------------
# polygon triangulation
# ---------------------------------------------------------------------------


def _signed_areas(tris: np.ndarray) -> np.ndarray:
    """Signed areas of a triangle (3x2) or of each triangle of a stack."""
    e1 = tris[..., 1, :] - tris[..., 0, :]
    e2 = tris[..., 2, :] - tris[..., 0, :]
    return 0.5 * (e1[..., 0] * e2[..., 1] - e1[..., 1] * e2[..., 0])


def _turn_crosses(coords: np.ndarray) -> np.ndarray:
    prev = coords - np.roll(coords, 1, axis=0)
    nxt = np.roll(coords, -1, axis=0) - coords
    return prev[:, 0] * nxt[:, 1] - prev[:, 1] * nxt[:, 0]


def triangulate_polygon(coords: np.ndarray) -> np.ndarray:
    """Split a simple CCW polygon into triangles, shape (T, 3, 2).

    Convex polygons (collinear vertices allowed) get a fan from vertex 0:
    m-2 triangles, less the zero-area ones a straight run through vertex 0
    would leave.  Polygons with a reflex vertex are ear-clipped.
    """
    coords = np.asarray(coords, dtype=float)
    n = len(coords)
    if n < 3:
        raise QuadratureError("polygon needs at least 3 vertices")
    scale = float(np.ptp(coords, axis=0).max())
    if scale <= 0.0:
        raise QuadratureError("degenerate polygon: zero extent")
    tol = 1e-12 * scale * scale
    poly_area = signed_area(coords)
    if poly_area <= tol:
        raise QuadratureError("polygon is not CCW or has (near-)zero area")
    crosses = _turn_crosses(coords)
    if np.all(crosses >= -tol):
        apex = np.broadcast_to(coords[0], (n - 2, 2))
        fan = np.stack([apex, coords[1:-1], coords[2:]], axis=1)
        tris = fan[_signed_areas(fan) > tol]
    else:
        tris = _ear_clip(coords, tol)
    covered = float(_signed_areas(tris).sum())
    if abs(covered - poly_area) > 1e-9 * max(poly_area, scale * scale):
        raise QuadratureError(
            "triangulation failure: triangle areas do not cover the polygon "
            "(self-intersecting loop?)"
        )
    return tris


def _point_in_triangle(p: np.ndarray, a, b, c, tol: float) -> bool:
    # strictly inside (boundary points do not block an ear)
    d1 = (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0])
    d2 = (c[0] - b[0]) * (p[1] - b[1]) - (c[1] - b[1]) * (p[0] - b[0])
    d3 = (a[0] - c[0]) * (p[1] - c[1]) - (a[1] - c[1]) * (p[0] - c[0])
    return d1 > tol and d2 > tol and d3 > tol


def _ear_clip(coords: np.ndarray, tol: float) -> np.ndarray:
    idx = list(range(len(coords)))
    tris: list[np.ndarray] = []
    guard = 0
    while len(idx) > 3:
        guard += 1
        if guard > 4 * len(coords) * len(coords):
            raise QuadratureError("triangulation failure: no ear found (tangled polygon?)")
        clipped = False
        m = len(idx)
        for j in range(m):
            ia, ib, ic = idx[j - 1], idx[j], idx[(j + 1) % m]
            a, b, c = coords[ia], coords[ib], coords[ic]
            cross = (b[0] - a[0]) * (c[1] - b[1]) - (b[1] - a[1]) * (c[0] - b[0])
            if cross < -tol:
                continue  # reflex tip
            if cross <= tol:
                # collinear: a hanging vertex on a straight run; drop it
                if min(a[0], c[0]) - 1e-12 <= b[0] <= max(a[0], c[0]) + 1e-12 and \
                   min(a[1], c[1]) - 1e-12 <= b[1] <= max(a[1], c[1]) + 1e-12:
                    idx.pop(j)
                    clipped = True
                    break
                continue
            blocked = any(
                _point_in_triangle(coords[other], a, b, c, tol)
                for other in idx
                if other not in (ia, ib, ic)
            )
            if blocked:
                continue
            tris.append(np.array([a, b, c]))
            idx.pop(j)
            clipped = True
            break
        if not clipped:
            raise QuadratureError("triangulation failure: no ear found (tangled polygon?)")
    last = coords[idx]
    if signed_area(last) > tol:
        tris.append(np.array(last))
    return np.array(tris).reshape(-1, 3, 2)


# ---------------------------------------------------------------------------
# polygon rules
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PolygonRule:
    """Physical-space rule over one polygonal cell.

    weights carry the area measure: sum(weights) == |K|.  ``triangles`` is
    the triangulation the rule was mapped onto, kept so that other rules
    can be mapped onto the same pieces (``map_to_triangle``).
    """

    order: int
    points: np.ndarray  # (n, 2)
    weights: np.ndarray  # (n,)
    triangles: np.ndarray  # (T, 3, 2)


def polygon_rule(coords: np.ndarray, order: int) -> PolygonRule:
    """Rule over the simple CCW polygon ``coords``, exact up to ``order``."""
    tris = triangulate_polygon(coords)
    pts, wts = map_to_triangle(triangle_rule(order), tris)
    return PolygonRule(order=order, points=pts, weights=wts, triangles=tris)


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
    """(n, k-1, 2) interior nodes of the (k+1)-point Lobatto rule on each
    segment from ``starts[i]`` to ``ends[i]``: the edge dofs of order k."""
    nodes, _ = gauss_lobatto(k + 1)
    t = (nodes[1:-1] + 1.0) / 2.0
    return starts[:, None] + t[:, None] * (ends - starts)[:, None]

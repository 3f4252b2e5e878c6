"""Quadrature rules on triangles and edges.

Triangle rules are collapsed (Duffy-type) tensor Gauss-Legendre rules, so
any requested order is available without tabulated constants.  A rule over
a polygonal cell is the triangle rule mapped onto the cell's triangles,
which the mesh computes once per cell (see ``mesh``): every rule of a cell
group is one array of shape (cells, points, 2), and mapping several rules
onto the same triangles costs no second triangulation.
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

from .mesh import triangle_areas


# ---------------------------------------------------------------------------
# reference triangle rules
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TriangleRule:
    """Rule on the reference triangle (0,0)-(1,0)-(0,1).

    Parameters
    ----------
    points : ndarray, shape (n, 3)
        Barycentric coordinates of the nodes.
    weights : ndarray, shape (n,)
        Normalized weights, summing to 1.  The physical weight on a
        triangle T is ``weights * area(T)``.
    """

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
    return TriangleRule(points=bary, weights=weights)


def map_to_triangle(rule: TriangleRule, tri: np.ndarray):
    """Map a reference rule to the physical triangle ``tri`` (3x2 array), or
    to each triangle of a stack ``tri`` of shape (..., T, 3, 2).

    Returns (points, weights), the points of a stack triangle by triangle,
    (..., T * n, 2) and (..., T * n), with weights summing to the covered
    area.  Orientation does not matter; the absolute area is used.
    """
    tri = np.asarray(tri, dtype=float)
    area = np.abs(triangle_areas(tri))
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
# Gauss-Lobatto rules
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def gauss_lobatto(npoints: int):
    """Reference Gauss-Lobatto nodes/weights on [-1, 1] (weights sum to 2)."""
    if npoints < 2:
        raise ValueError("Gauss-Lobatto needs at least 2 points")
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

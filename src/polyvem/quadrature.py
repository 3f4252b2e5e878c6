"""Quadrature rules on triangles, quadrilaterals and edges, keyed by degree.

Triangle rules are Dunavant's fully symmetric rules of degree 4 to 12,
with positive weights and interior points, polished to double precision
(see ``triangle_rule``, also for why no rule is below degree 4).  A rule
over a polygonal cell is mapped onto the cell's triangles, which the mesh
computes once per cell (see ``mesh``): every rule of a cell group is one
array of shape (cells, points, 2), and mapping several rules onto the same
triangles costs no second triangulation.  ``cell_rule(order, geom)`` is
the one place a cell group's rule is chosen: on a convex group it joins
each consecutive pair of fan triangles into a quadrilateral and maps the
tensor Gauss-Legendre rule through that quadrilateral's bilinear map
(Stroud, 1971), which needs fewer points than the triangle rule on the
two triangles: 9 instead of 12 at degree 4, 16 instead of 24 at degree 6.
The reference Gauss-Lobatto rule on [-1, 1] serves the cell edges: the
nodes of its (k+1)-point rule, mapped onto an edge, are the vertex and
edge degrees of freedom of the order-k virtual space, which makes
boundary integrals of traces diagonal in those dofs.  The problem's fields
are sampled at these points by ``problems.sample``, not here.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np
from numpy.polynomial import legendre as _leg

from .mesh import CellGeometry, triangle_areas

__all__ = ["triangle_rule", "map_to_triangle", "map_to_quadrilateral", "cell_rule",
           "gauss_lobatto", "lobatto_edge_points"]


# ---------------------------------------------------------------------------
# reference triangle rules
# ---------------------------------------------------------------------------


#: Dunavant (IJNME 21, 1985) by degree: orbits (w, a, b) of a per-point weight w and the
#: barycentric point (a, b, 1 - a - b), which stands for its distinct permutations.
_ORBITS = {
    4: [(0.22338158967801147, 0.4459484909159649, 0.4459484909159649),
        (0.10995174365532187, 0.09157621350977074, 0.09157621350977074)],
    6: [(0.11678627572637937, 0.24928674517091043, 0.24928674517091043),
        (0.05084490637020682, 0.06308901449150223, 0.06308901449150223),
        (0.08285107561837357, 0.053145049844816945, 0.3103524510337844)],
    8: [(0.14431560767778717, 1 / 3, 1 / 3),
        (0.09509163426728462, 0.4592925882927232, 0.4592925882927232),
        (0.10321737053471824, 0.1705693077517602, 0.1705693077517602),
        (0.03245849762319808, 0.05054722831703098, 0.05054722831703098),
        (0.027230314174434993, 0.008394777409957605, 0.2631128296346381)],
    10: [(0.09081799038275358, 1 / 3, 1 / 3),
         (0.036725957756466705, 0.4855776333836574, 0.4855776333836574),
         (0.04532105943552794, 0.10948157548503705, 0.10948157548503705),
         (0.07275791684542011, 0.14170721941487996, 0.30793983876412095),
         (0.028327242531057485, 0.025003534762686387, 0.2466725606399027),
         (0.009421666963732823, 0.009540815400299458, 0.06680325101220026)],
    12: [(0.025731066440455336, 0.48821738977380486, 0.48821738977380486),
         (0.043692544538038405, 0.43972439229446025, 0.43972439229446025),
         (0.0628582242178851, 0.2712103850121159, 0.2712103850121159),
         (0.034796112930708945, 0.12757614554158592, 0.12757614554158592),
         (0.006166261051559018, 0.02131735045321037, 0.02131735045321037),
         (0.040371557766380926, 0.2757132696855142, 0.115343494534698),
         (0.022356773202303445, 0.28132558098993954, 0.022838332222257028),
         (0.017316231108658892, 0.11625191590759715, 0.02573405054833023)],
}


@lru_cache(maxsize=None)
def triangle_rule(order: int):
    """Barycentric points (n, 3) and weights (n,), summing to 1, of the
    symmetric rule on a triangle of the lowest degree >= max(order, 4):
    degrees 4, 6, 8, 10, 12 have 6, 12, 16, 25, 33 points.  Newton's method
    on the moment equations, in 40 digits, polished Dunavant's constants
    until each monomial up to the degree is exact to 1e-15.  The k=1 load
    (order 2) gets the 6-point rule, not a 3-point one: with the degree-2
    rule the adaptive k=1 study no longer beats uniform refinement at
    matched dofs.
    """
    degree = min((d for d in _ORBITS if d >= order), default=None)
    if degree is None:
        raise ValueError(f"triangle rules are tabulated up to order 12, not {order}")
    points, weights = [], []
    for w, a, b in _ORBITS[degree]:
        orbit = np.array(list(itertools.permutations((a, b, 1.0 - a - b))))
        _, first = np.unique(orbit.round(12), axis=0, return_index=True)  # 1 - 2/3 != 1/3
        points.append(orbit[np.sort(first)])
        weights += [w] * len(first)
    return np.concatenate(points), np.array(weights)


def map_to_triangle(order: int, tri: np.ndarray):
    """The rule of ``triangle_rule(order)`` mapped onto the triangle ``tri``
    (3x2 array), or onto each triangle of a stack ``tri`` of shape
    (..., T, 3, 2).

    Returns (points, weights), the points of a stack triangle by triangle,
    (..., T * n, 2) and (..., T * n), with weights summing to the covered
    area.  Orientation does not matter; the absolute area is used.
    """
    points, weights = triangle_rule(order)
    tri = np.asarray(tri, dtype=float)
    area = np.abs(triangle_areas(tri))
    pts = points @ tri
    lead = tri.shape[:-3]
    return pts.reshape(*lead, -1, 2), (area[..., None] * weights).reshape(*lead, -1)


# ---------------------------------------------------------------------------
# quadrilateral and cell rules
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _square_rule(order: int):
    """Nodes s, t and weights (summing to 1) of the n x n Gauss-Legendre
    rule on the unit square, n = d/2 + 1 for the even degree d >= order, at
    least 4.  Through a bilinear map the Jacobian has degree 1 in s and in t,
    so a polynomial of total degree d integrates to a degree of at most
    d + 1 in each, and n Gauss nodes are exact up to 2n - 1 >= d + 1."""
    nodes, weights = _leg.leggauss((max(order, 4) + 3) // 2)
    s, t = np.meshgrid((nodes + 1.0) / 2.0, (nodes + 1.0) / 2.0, indexing="ij")
    return s.reshape(-1, 1), t.reshape(-1, 1), np.outer(weights, weights).ravel() / 4.0


def map_to_quadrilateral(order: int, quads: np.ndarray):
    """The rule of ``_square_rule(order)`` mapped onto each quadrilateral
    (v0, v1, v2, v3) of a stack ``quads`` of shape (..., Q, 4, 2) through its
    bilinear map v0 + s a + t b + s t c, with weights w |J|.  Returns
    (points, weights), quadrilateral by quadrilateral, (..., Q * n*n, 2) and
    (..., Q * n*n).  On a convex quadrilateral, a straight angle allowed,
    every point lies inside it and every weight is positive."""
    s, t, weights = _square_rule(order)
    v0, v1, v2, v3 = (quads[..., i, None, :] for i in range(4))
    a, b = v1 - v0, v3 - v0
    c = v2 - v3 - a
    pts = v0 + s * a + t * b + (s * t) * c
    d_s, d_t = a + t * c, b + s * c
    det = np.abs(d_s[..., 0] * d_t[..., 1] - d_s[..., 1] * d_t[..., 0])
    lead = quads.shape[:-3]
    return pts.reshape(*lead, -1, 2), (weights * det).reshape(*lead, -1)


def cell_rule(order: int, geom: CellGeometry):
    """(points, weights), (G, n, 2) and (G, n), of the rule of degree
    ``order`` (at least 4) over the G cells of the cell group ``geom``: the
    one place a group's rule is chosen.  The triangles of a convex group
    are the fan (v0, va, vb), (v0, vb, vc), ... from vertex 0, so each
    consecutive pair is the quadrilateral (v0, va, vb, vc) and gets
    ``map_to_quadrilateral``, and an odd last triangle the triangle rule;
    any other group gets the triangle rule on every triangle."""
    pairs = geom.triangles.shape[1] // 2 if geom.convex.all() else 0
    fan = geom.triangles[:, : 2 * pairs]
    quads = np.concatenate([fan[:, ::2], fan[:, 1::2, 2:]], axis=2)
    rest = map_to_triangle(order, geom.triangles[:, 2 * pairs :])
    return tuple(np.concatenate(parts, axis=1)
                 for parts in zip(map_to_quadrilateral(order, quads), rest))


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

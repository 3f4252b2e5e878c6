"""An independent oracle for k = 1 on triangles: there the virtual element
space is P1, the projections are the identity on it and every stabilization
vanishes, so the assembled forms must equal the P1 finite element matrices
built here from barycentric gradients, with nothing taken from the solver
but the quadrature rule and the field sampler ``problems.sample``."""

import numpy as np

from polyvem.mesh import PolyMesh
from polyvem.problems import sample
from polyvem.quadrature import map_to_triangle


def triangle_grid(n: int, seed: int, jitter: float = 0.2) -> PolyMesh:
    """The n x n grid of the unit square, each square cut into two triangles
    along its (0, 0)-(1, 1) diagonal; interior vertices move by seeded
    uniform offsets of at most jitter / n per coordinate."""
    side = np.linspace(0.0, 1.0, n + 1)
    gx, gy = np.meshgrid(side, side, indexing="xy")
    verts = np.column_stack([gx.ravel(), gy.ravel()])  # vertex (i, j) is j * (n + 1) + i
    interior = ((verts > 0.0) & (verts < 1.0)).all(axis=1)
    rng = np.random.default_rng(seed)
    verts[interior] += rng.uniform(-jitter / n, jitter / n, size=(interior.sum(), 2))
    corner = (np.arange(n * n) // n) * (n + 1) + np.arange(n * n) % n
    lower = np.column_stack([corner, corner + 1, corner + n + 2])
    upper = np.column_stack([corner, corner + n + 2, corner + n + 1])
    return PolyMesh(verts, np.concatenate([lower, upper]))


def p1_matrices(mesh: PolyMesh, problem) -> dict:
    """Dense P1 matrices m1, m2, a and b of a triangle mesh, indexed by
    vertex, with M[i, j] = form(phi_j, phi_i):
    m1 = (w, v), m2 = (mu grad w, grad v),
    a = (eps grad w, grad v) + (sigma w, v) with sigma = gamma - div(beta)/2,
    b = [(beta . grad w, v) - (w, beta . grad v)] / 2."""
    n = mesh.num_vertices
    mats = {name: np.zeros((n, n)) for name in ("m1", "m2", "a", "b")}
    for cell in mesh.cells:
        tri = mesh.vertices[cell]
        pts, w = map_to_triangle(12, tri)
        coef = np.linalg.inv(np.column_stack([np.ones(3), tri]))  # column i: lambda_i
        phi = np.column_stack([np.ones(len(pts)), pts]) @ coef  # (nq, 3)
        grad = coef[1:].T  # (3, 2), constant on the triangle
        mu, eps, beta, gamma, div_beta = (
            sample(problem, name, pts) for name in ("mu", "eps", "beta", "gamma", "div_beta"))
        sigma = gamma - 0.5 * div_beta

        def mass(c):
            return phi.T @ ((w * c)[:, None] * phi)

        def stiffness(coeff):
            return grad @ np.einsum("q,qcd->cd", w, coeff) @ grad.T

        conv = phi.T @ ((w[:, None] * beta) @ grad.T)  # (beta . grad phi_j, phi_i)
        local = {
            "m1": mass(np.ones_like(w)),
            "m2": stiffness(mu),
            "a": stiffness(eps) + mass(sigma),
            "b": 0.5 * (conv - conv.T),
        }
        for name, mat in local.items():
            mats[name][np.ix_(cell, cell)] += mat
    return mats

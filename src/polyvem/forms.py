"""Local discrete bilinear forms and load vectors.

The continuous problem

    u_t - div(mu grad u_t + eps grad u) + beta . grad u + gamma u = f

is discretized with four cell-local forms acting on dof vectors, each
built from the computable projections plus a dofi-dofi stabilization:

* ``m1``  (w, v)                        mass (stabilized),
* ``m2``  (mu grad w, grad v)           gradient mass (stabilized),
* ``a``   (eps grad w, grad v) + (sigma w, v)   with sigma = gamma - div(beta)/2,
* ``b``   [(beta . grad w, v) - (w, beta . grad v)] / 2   (skew-symmetric).

Matrix convention: M[i, j] = form(phi_j, phi_i), so M @ dofs(w) produces
the functionals v -> form(w, v).

The skew-symmetrized convection form keeps the discrete operator
dissipative regardless of quadrature, and sigma absorbs the divergence
term of the convection field.

The forms of a group of elements (see ``projectors``) are built at once,
with one coefficient call per group and one batched product over the
points per weighted mass matrix: each form is a (G, N, N) stack.

This module is the one place that samples and checks the coefficients
the forms use.  Each group evaluates mu, eps, beta and sigma once at its
form points and checks the values before any product: a value that is
not finite, or an mu or eps that is not positive definite, raises a
``CoefficientError`` naming the field and the point.  The stability
theory also assumes sigma >= 0; that is only warned about, so each group
reports its lowest sigma and ``coefficient_notes`` turns the lowest of an
assembly into one ``CoefficientWarning`` and one note.

The forms integrate variable coefficients with the element's rule of
degree 2k+2.  The load (f, pi0 phi_i) uses the element's own rule of
degree 2k: pi0 phi_i lies in P_k, so that rule is exact for every f in
P_k, and the source, which is evaluated at every time step, is evaluated
at fewer points.
"""

from __future__ import annotations

import logging
import warnings
from dataclasses import dataclass

import numpy as np

from .projectors import LocalElement, polynomial_dimension
from .quadrature import at_points

logger = logging.getLogger(__name__)

__all__ = [
    "CoefficientError",
    "CoefficientWarning",
    "LocalForms",
    "constant_coefficient_scales",
    "build_stabilizations",
    "build_local_forms",
    "coefficient_notes",
    "load_map_block",
]


class CoefficientError(Exception):
    """A coefficient violates a structural requirement (finiteness or
    definiteness)."""


class CoefficientWarning(UserWarning):
    """A coefficient violates an assumption that only weakens the theory."""


def constant_coefficient_scales(problem, centroids: np.ndarray):
    """Cell-centroid scalar surrogates (mu_K, eps_K, sigma_K) used to scale
    the stabilization terms: three arrays over the (n, 2) centroids."""
    x, y = centroids[:, 0], centroids[:, 1]
    mu = np.asarray(problem.mu(x, y), dtype=float)
    eps = np.asarray(problem.eps(x, y), dtype=float)
    sigma = np.asarray(problem.sigma(x, y), dtype=float)
    return (
        0.5 * (mu[:, 0, 0] + mu[:, 1, 1]),
        0.5 * (eps[:, 0, 0] + eps[:, 1, 1]),
        np.maximum(sigma, 0.0),
    )


def build_stabilizations(element: LocalElement, mu_k, eps_k, sigma_k):
    """dofi-dofi stabilizations (S1, S2, S3) of a group, scaled to match each
    form; the scales are numbers or arrays over the group's cells."""
    q = element.stab_q
    base = np.swapaxes(q, 1, 2) @ q
    scales = (element.geom.area, mu_k, eps_k + sigma_k * element.geom.area)
    return tuple(np.reshape(c, (-1, 1, 1)) * base for c in scales)


@dataclass
class LocalForms:
    """The four form matrices of a group, (G, N, N) each, and the lowest
    sigma at the group's form points as (value, x, y)."""

    m1: np.ndarray
    m2: np.ndarray
    a: np.ndarray
    b: np.ndarray
    sigma_low: tuple


def _sample(problem, name: str, points: np.ndarray) -> np.ndarray:
    """Field ``name`` of the problem at points stacked as (..., 2), checked
    before any form uses it: a value that is not finite, or an mu or eps
    that is not positive definite, raises a ``CoefficientError`` naming
    the field and the first bad point."""
    values = at_points(getattr(problem, name), points)
    xy = points.reshape(-1, 2)
    rows = values.reshape(len(xy), -1)
    bad, what = ~np.isfinite(rows).all(axis=1), "finite"
    if not bad.any() and name in ("mu", "eps"):
        m = rows.reshape(-1, 2, 2)
        sym = 0.5 * (m + np.swapaxes(m, 1, 2))
        tr = sym[:, 0, 0] + sym[:, 1, 1]
        det = sym[:, 0, 0] * sym[:, 1, 1] - sym[:, 0, 1] * sym[:, 1, 0]
        bad, what = ~((tr > 0) & (det > 0)), "positive definite"
    if bad.any():
        x, y = xy[np.argmax(bad)]
        raise CoefficientError(f"{name} is not {what} at ({x:.4g}, {y:.4g})")
    return values


def _weighted_mass(values_i: np.ndarray, weights: np.ndarray, values_j: np.ndarray) -> np.ndarray:
    """sum_q w_q v_i(x_q) v_j(x_q) for each cell of a group: one batched
    product contracting (G, nq, a) and (G, nq, b) values over the points."""
    return np.swapaxes(values_i, 1, 2) @ (weights[..., None] * values_j)


def build_local_forms(element: LocalElement, problem) -> LocalForms:
    """Assemble the four local form matrices of each cell of a group."""
    pts, w = element.quad_points, element.quad_weights
    nk1 = polynomial_dimension(element.k - 1)
    vk = element.monomial_values
    vk1 = vk[..., :nk1]
    pi0 = element.pi0_star
    pi0_t = np.swapaxes(pi0, 1, 2)
    pig = np.moveaxis(element.pi0_grad_star, 1, 0)  # x and y components
    pig_t = np.swapaxes(pig, 2, 3)

    mu, eps, beta, sigma = (_sample(problem, name, pts) for name in ("mu", "eps", "beta", "sigma"))

    mu_k, eps_k, sigma_k = constant_coefficient_scales(problem, element.geom.centroid)
    s1, s2, s3 = build_stabilizations(element, mu_k, eps_k, sigma_k)

    def gradient_form(coeff):
        return sum(
            pig_t[c] @ _weighted_mass(vk1, w * coeff[..., c, d], vk1) @ pig[d]
            for c in range(2)
            for d in range(2)
        )

    m1 = pi0_t @ element.mass_monomials @ pi0 + s1
    m2 = gradient_form(mu) + s2
    a = pi0_t @ _weighted_mass(vk, w * sigma, vk) @ pi0 + gradient_form(eps) + s3
    x_conv = sum(pi0_t @ _weighted_mass(vk, w * beta[..., d], vk1) @ pig[d] for d in range(2))

    m1, m2, a = (0.5 * (mat + np.swapaxes(mat, 1, 2)) for mat in (m1, m2, a))
    low = np.argmin(sigma)
    return LocalForms(
        m1=m1, m2=m2, a=a, b=0.5 * (x_conv - np.swapaxes(x_conv, 1, 2)),
        sigma_low=(sigma.flat[low], *pts.reshape(-1, 2)[low]),
    )


def coefficient_notes(sigma_lows) -> list[str]:
    """Warn once, and return one note, if sigma = gamma - div(beta)/2 is
    negative at a form point: ``sigma_lows`` are the groups'
    ``LocalForms.sigma_low``, and the note names the lowest of them, the
    earliest group's on a tie."""
    value, x, y = min(sigma_lows, key=lambda low: low[0])
    if value >= -1e-14:
        return []
    # keep the warning text value-free so repeated assemblies of the
    # same problem deduplicate; the sample point goes to the note/log
    warnings.warn(
        "sigma = gamma - div(beta)/2 takes negative values; "
        "the stability theory assumes sigma >= 0",
        CoefficientWarning,
        stacklevel=2,
    )
    note = f"sigma = gamma - div(beta)/2 is negative (min {value:.4g} at ({x:.4g}, {y:.4g}))"
    logger.info(note)
    return [note]


def load_map_block(element: LocalElement) -> np.ndarray:
    """(G, N, nl) stack of matrices taking source values at each cell's
    load points to its local load vector (f, pi0 phi_i); reusable across
    time steps."""
    values = element.basis.eval(element.load_points)
    return np.swapaxes(element.pi0_star, 1, 2) @ (
        np.swapaxes(values, 1, 2) * element.load_weights[:, None, :]
    )

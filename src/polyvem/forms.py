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

This module is the one place that samples and checks the coefficients.
Each group evaluates mu, eps, beta and sigma once at its form points, and
mu, eps and sigma once at its centroids for the stabilization scales
(``stabilization_scales``, which the error indicators also read), and
checks the values before any product: a value that is not finite, or an
mu or eps that is not positive definite, raises a ``CoefficientError``
naming the field and the point.  The same check covers the mu of the
initial projection's load (mu grad u0, pi0 grad phi_i), which lives here
next to the m2 form it projects with.  The stability theory also assumes
sigma >= 0; that is only warned about, so each group reports its lowest
sigma and ``coefficient_notes`` turns the lowest of an assembly into one
``CoefficientWarning`` and one note.

The forms, the load (f, pi0 phi_i) and the initial projection's load all
integrate with the element's one rule of degree 2k.  It is exact for the
load with f in P_k, for m1, for m2 and the gradient part of a with mu and
eps of degree <= 2, and for b with beta of degree <= 1; only (sigma pi0 w,
pi0 v) with a non-constant sigma is inexact, at higher order than the scheme.
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
    "stabilization_scales",
    "build_local_forms",
    "coefficient_notes",
    "load_map_block",
    "initial_projection_load",
]


class CoefficientError(Exception):
    """A coefficient violates a structural requirement (finiteness or
    definiteness)."""


class CoefficientWarning(UserWarning):
    """A coefficient violates an assumption that only weakens the theory."""


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


def stabilization_scales(element: LocalElement, problem):
    """Per-cell scales (|K|, mu_K, eps_K + max(sigma_K, 0) |K|) of the
    dofi-dofi stabilizations S1, S2, S3 of a group, from mu, eps and sigma
    sampled and checked at the cell centroids; mu_K and eps_K are half the
    traces."""
    centroid, area = element.geom.centroid, element.geom.area
    mu, eps, sigma = (_sample(problem, name, centroid) for name in ("mu", "eps", "sigma"))
    mu_k = 0.5 * (mu[:, 0, 0] + mu[:, 1, 1])
    eps_k = 0.5 * (eps[:, 0, 0] + eps[:, 1, 1])
    return area, mu_k, eps_k + np.maximum(sigma, 0.0) * area


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

    q = element.stab_q
    base = np.swapaxes(q, 1, 2) @ q
    s1, s2, s3 = (c[:, None, None] * base for c in stabilization_scales(element, problem))

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
    """(G, N, nq) stack of matrices taking source values at each cell's
    quadrature points to its local load vector (f, pi0 phi_i); reusable
    across time steps."""
    return np.swapaxes(element.pi0_star, 1, 2) @ (
        np.swapaxes(element.monomial_values, 1, 2) * element.quad_weights[:, None, :]
    )


def initial_projection_load(element: LocalElement, problem) -> np.ndarray:
    """(G, N) stack of the local right-hand sides (mu grad u0, pi0 grad phi_i)
    of the initial elliptic projection under m2, on the forms' rule."""
    pts, w = element.quad_points, element.quad_weights
    flux = (_sample(problem, "mu", pts) @ at_points(problem.grad_u0, pts)[..., None])[..., 0]
    vk1 = element.monomial_values[..., : polynomial_dimension(element.k - 1)]
    moments = _weighted_mass(flux, w, vk1)  # (mu grad u0, m_i e_c), (G, 2, nk1)
    return np.einsum("gcin,gci->gn", element.pi0_grad_star, moments)

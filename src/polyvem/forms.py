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

This module is the one that reads the coefficients, each through
``problems.sample``, which checks the values before any product (a value
that is not finite, or an mu or eps that is not positive definite, raises
a ``CoefficientError`` naming the field and the point).  Each group samples
mu, eps, beta and sigma once at its form points, and mu, eps and sigma once
at its centroids for the stabilization scales (``stabilization_scales``,
which the error indicators also read).  The initial projection's load
(mu grad u0, pi0 grad phi_i) lives here too, next to the m2 form it
projects with.  The stability theory also assumes sigma >= 0; that is
only noted, so each group reports its lowest sigma and
``coefficient_notes`` turns the lowest of an assembly into one note,
which it also logs at WARNING on this module's logger.

The forms, the load (f, pi0 phi_i) and the initial projection's load all
integrate with the element's one rule of degree 2k.  It is exact for the
load with f in P_k, for m1, for m2 and the gradient part of a with mu and
eps of degree <= 2, and for b with beta of degree <= 1; only (sigma pi0 w,
pi0 v) with a non-constant sigma is inexact, at higher order than the scheme.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .problems import sample
from .projectors import LocalElement, polynomial_dimension

logger = logging.getLogger(__name__)

__all__ = [
    "LocalForms",
    "stabilization_scales",
    "build_local_forms",
    "coefficient_notes",
    "load_map_block",
    "initial_projection_load",
]


class CoefficientWarning(UserWarning):
    """Never raised (``coefficient_notes`` logs instead); kept only because
    ``perfbench/run.py`` imports and filters it.  ROADMAP item 9 deletes both."""


@dataclass
class LocalForms:
    """The four form matrices of a group, (G, N, N) each, and the lowest
    sigma at the group's form points as (value, x, y)."""

    m1: np.ndarray
    m2: np.ndarray
    a: np.ndarray
    b: np.ndarray
    sigma_low: tuple


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
    mu, eps, sigma = (sample(problem, name, centroid) for name in ("mu", "eps", "sigma"))
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

    mu, eps, beta, sigma = (sample(problem, name, pts) for name in ("mu", "eps", "beta", "sigma"))

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
    """Return one note, and log it once at WARNING, if sigma = gamma -
    div(beta)/2 is negative at a form point: ``sigma_lows`` are the groups'
    ``LocalForms.sigma_low``, and the note names the lowest of them, the
    earliest group's on a tie."""
    value, x, y = min(sigma_lows, key=lambda low: low[0])
    if value >= -1e-14:
        return []
    note = f"sigma = gamma - div(beta)/2 is negative (min {value:.4g} at ({x:.4g}, {y:.4g}))"
    logger.warning(note)
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
    flux = (sample(problem, "mu", pts) @ sample(problem, "grad_u0", pts)[..., None])[..., 0]
    vk1 = element.monomial_values[..., : polynomial_dimension(element.k - 1)]
    moments = _weighted_mass(flux, w, vk1)  # (mu grad u0, m_i e_c), (G, 2, nk1)
    return np.einsum("gcin,gci->gn", element.pi0_grad_star, moments)

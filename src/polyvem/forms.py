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

logger = logging.getLogger(__name__)

__all__ = [
    "CoefficientError",
    "CoefficientWarning",
    "LocalForms",
    "check_coefficients",
    "constant_coefficient_scales",
    "build_stabilizations",
    "build_local_forms",
    "load_map_block",
]


class CoefficientError(Exception):
    """A coefficient violates a structural requirement (definiteness)."""


class CoefficientWarning(UserWarning):
    """A coefficient violates an assumption that only weakens the theory."""


def check_coefficients(problem, points: np.ndarray) -> list[str]:
    """Validate coefficient assumptions at sample points.

    Positive definiteness of mu and eps is required (raises
    ``CoefficientError``); non-negativity of sigma = gamma - div(beta)/2
    is only assumed by the stability theory, so a violation emits a
    ``CoefficientWarning`` and is reported back.
    """
    x, y = points[:, 0], points[:, 1]
    notes = []
    for name, field in (("mu", problem.mu), ("eps", problem.eps)):
        m = np.asarray(field(x, y), dtype=float)
        sym = 0.5 * (m + np.transpose(m, (0, 2, 1)))
        tr = sym[:, 0, 0] + sym[:, 1, 1]
        det = sym[:, 0, 0] * sym[:, 1, 1] - sym[:, 0, 1] * sym[:, 1, 0]
        if (tr <= 0).any() or (det <= 0).any():
            bad = int(np.argmax((tr <= 0) | (det <= 0)))
            raise CoefficientError(
                f"{name} is not positive definite at ({x[bad]:.4g}, {y[bad]:.4g})"
            )
    sigma = problem.sigma(x, y)
    if (sigma < -1e-14).any():
        bad = int(np.argmin(sigma))
        # keep the warning text value-free so repeated assemblies of the
        # same problem deduplicate; the sample point goes to the note/log
        warnings.warn(
            "sigma = gamma - div(beta)/2 takes negative values; "
            "the stability theory assumes sigma >= 0",
            CoefficientWarning,
            stacklevel=2,
        )
        note = (
            f"sigma = gamma - div(beta)/2 is negative (min {sigma[bad]:.4g} at "
            f"({x[bad]:.4g}, {y[bad]:.4g}))"
        )
        logger.info(note)
        notes.append(note)
    return notes


def constant_coefficient_scales(problem, centroid: np.ndarray):
    """Cell-centroid scalar surrogates (mu_K, eps_K, sigma_K) used to scale
    the stabilization terms."""
    x = np.array([centroid[0]])
    y = np.array([centroid[1]])
    mu = np.asarray(problem.mu(x, y), dtype=float)[0]
    eps = np.asarray(problem.eps(x, y), dtype=float)[0]
    sigma = float(np.asarray(problem.sigma(x, y))[0])
    return 0.5 * np.trace(mu), 0.5 * np.trace(eps), max(sigma, 0.0)


def build_stabilizations(element: LocalElement, mu_k: float, eps_k: float, sigma_k: float):
    """dofi-dofi stabilizations (S1, S2, S3) scaled to match each form."""
    q = element.stab_q
    base = q.T @ q
    area = element.geom.area
    return area * base, mu_k * base, (eps_k + sigma_k * area) * base


@dataclass
class LocalForms:
    m1: np.ndarray
    m2: np.ndarray
    a: np.ndarray
    b: np.ndarray


def _weighted_mass(values_i: np.ndarray, values_j: np.ndarray, weights: np.ndarray) -> np.ndarray:
    return values_i.T @ (weights[:, None] * values_j)


def build_local_forms(element: LocalElement, problem) -> LocalForms:
    """Assemble the four local form matrices of one cell."""
    pts, w = element.quad_points, element.quad_weights
    x, y = pts[:, 0], pts[:, 1]
    nk1 = polynomial_dimension(element.k - 1)
    vk = element.monomial_values
    vk1 = vk[:, :nk1]
    pi0 = element.pi0_star
    pig = element.pi0_grad_star

    mu = np.asarray(problem.mu(x, y), dtype=float)
    eps = np.asarray(problem.eps(x, y), dtype=float)
    beta = np.asarray(problem.beta(x, y), dtype=float)
    sigma = np.asarray(problem.sigma(x, y), dtype=float)

    mu_k, eps_k, sigma_k = constant_coefficient_scales(problem, element.geom.centroid)
    s1, s2, s3 = build_stabilizations(element, mu_k, eps_k, sigma_k)

    m1 = pi0.T @ element.mass_monomials @ pi0 + s1

    m2 = s2.copy()
    a = pi0.T @ _weighted_mass(vk, vk, w * sigma) @ pi0 + s3
    for c in range(2):
        for d in range(2):
            h_mu = _weighted_mass(vk1, vk1, w * mu[:, c, d])
            h_eps = _weighted_mass(vk1, vk1, w * eps[:, c, d])
            m2 += pig[c].T @ h_mu @ pig[d]
            a += pig[c].T @ h_eps @ pig[d]

    x_conv = np.zeros_like(m1)
    for d in range(2):
        h_beta = _weighted_mass(vk, vk1, w * beta[:, d])
        x_conv += pi0.T @ h_beta @ pig[d]
    b = 0.5 * (x_conv - x_conv.T)

    m1 = 0.5 * (m1 + m1.T)
    m2 = 0.5 * (m2 + m2.T)
    a = 0.5 * (a + a.T)
    return LocalForms(m1=m1, m2=m2, a=a, b=b)


def load_map_block(element: LocalElement) -> np.ndarray:
    """Matrix taking source values at the cell's load points to the local
    load vector (f, pi0 phi_i); reusable across time steps."""
    values = element.basis.eval(element.load_points)
    return element.pi0_star.T @ (values.T * element.load_weights)

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
    "check_coefficients",
    "constant_coefficient_scales",
    "build_stabilizations",
    "build_local_forms",
    "load_map_block",
]


class CoefficientError(Exception):
    """A coefficient violates a structural requirement (finiteness or
    definiteness)."""


class CoefficientWarning(UserWarning):
    """A coefficient violates an assumption that only weakens the theory."""


def check_coefficients(problem, points: np.ndarray) -> list[str]:
    """Validate coefficient assumptions at sample points.

    Finite values of mu, eps, beta and sigma = gamma - div(beta)/2 and
    positive definiteness of mu and eps are required (a violation raises a
    ``CoefficientError`` naming the field and the point); non-negativity
    of sigma is only assumed by the stability theory, so a violation emits
    a ``CoefficientWarning`` and is reported back.
    """
    x, y = points[:, 0], points[:, 1]
    notes = []
    fields = {name: np.asarray(getattr(problem, name)(x, y), dtype=float)
              for name in ("mu", "eps", "beta", "sigma")}
    for name, values in fields.items():
        finite = np.isfinite(values).reshape(len(x), -1).all(axis=1)
        if not finite.all():
            bad = int(np.argmin(finite))
            raise CoefficientError(f"{name} is not finite at ({x[bad]:.4g}, {y[bad]:.4g})")
        if name in ("mu", "eps"):
            sym = 0.5 * (values + np.transpose(values, (0, 2, 1)))
            tr = sym[:, 0, 0] + sym[:, 1, 1]
            det = sym[:, 0, 0] * sym[:, 1, 1] - sym[:, 0, 1] * sym[:, 1, 0]
            indefinite = ~((tr > 0) & (det > 0))
            if indefinite.any():
                bad = int(np.argmax(indefinite))
                raise CoefficientError(
                    f"{name} is not positive definite at ({x[bad]:.4g}, {y[bad]:.4g})"
                )
    sigma = fields["sigma"]
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
    """The four form matrices of a group, (G, N, N) each."""

    m1: np.ndarray
    m2: np.ndarray
    a: np.ndarray
    b: np.ndarray


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

    mu = at_points(problem.mu, pts)
    eps = at_points(problem.eps, pts)
    beta = at_points(problem.beta, pts)
    sigma = at_points(problem.sigma, pts)

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
    return LocalForms(m1=m1, m2=m2, a=a, b=0.5 * (x_conv - np.swapaxes(x_conv, 1, 2)))


def load_map_block(element: LocalElement) -> np.ndarray:
    """(G, N, nl) stack of matrices taking source values at each cell's
    load points to its local load vector (f, pi0 phi_i); reusable across
    time steps."""
    values = element.basis.eval(element.load_points)
    return np.swapaxes(element.pi0_star, 1, 2) @ (
        np.swapaxes(values, 1, 2) * element.load_weights[:, None, :]
    )

"""Problem catalog: coefficient sets with manufactured exact solutions.

Every problem describes

    u_t - div(mu grad u_t + eps grad u) + beta . grad u + gamma u = f

on the unit square for t in (0, T] with Dirichlet data ``dirichlet`` and
initial value ``u0``.  The built-in problems carry their exact solution
(and gradient) so convergence studies can measure errors directly:

* ``variable``    smooth sine solution, fully variable coefficients
                  (sigma changes sign, which triggers a stability warning),
* ``convection``  convection-dominated transport (eps = 1e-6, beta = (10,10))
                  with an exponential solution and non-homogeneous data,
* ``gaussian``    narrow Gaussian bump, the adaptivity workhorse,
* ``polynomial_patch(k)``  solution t * p with p in P_k and constant
                  coefficients: reproduced exactly by the order-k method,
* ``quadratic_time``  solution t^2 * sine with constant coefficients:
                  spatial error negligible next to the O(tau) time error.

All callables are vectorized over point arrays; time enters only through
``f``, ``dirichlet`` and the exact solution.  The first two must broadcast
over t: given (n, 1) columns x, y and a (1, B) row t, they return (n, 1) or (n, B).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "SobolevProblem",
    "isotropic",
    "constant_matrix",
    "constant_vector",
    "get_problem",
    "PROBLEM_NAMES",
    "polynomial_patch",
    "quadratic_time",
]


@dataclass(frozen=True)
class SobolevProblem:
    """Coefficients, data and (optionally) the exact solution."""

    name: str
    mu: Callable  # (x, y) -> (n, 2, 2)
    eps: Callable  # (x, y) -> (n, 2, 2)
    beta: Callable  # (x, y) -> (n, 2)
    div_beta: Callable  # (x, y) -> (n,)
    gamma: Callable  # (x, y) -> (n,)
    f: Callable  # (x, y, t) -> (n, 1) or (n, B) for (n, 1) x, y and (1, B) t
    dirichlet: Callable  # (x, y, t) -> (n, 1) or (n, B), as f
    u0: Callable  # (x, y) -> (n,)
    grad_u0: Callable | None = None  # (x, y) -> (n, 2)
    u_exact: Callable | None = None  # (x, y, t) -> (n,)
    grad_u_exact: Callable | None = None  # (x, y, t) -> (n, 2)

    def sigma(self, x, y):
        """Reaction seen by the symmetric part: gamma - div(beta)/2."""
        return np.asarray(self.gamma(x, y), dtype=float) - 0.5 * np.asarray(
            self.div_beta(x, y), dtype=float
        )


def isotropic(scalar: Callable) -> Callable:
    """Lift a scalar field s(x, y) to the matrix field s * I."""

    def field(x, y):
        s = np.asarray(scalar(x, y), dtype=float)
        out = np.zeros(s.shape + (2, 2))
        out[..., 0, 0] = s
        out[..., 1, 1] = s
        return out

    return field


def constant_matrix(value: float) -> Callable:
    return isotropic(lambda x, y: np.full(np.shape(x), float(value)))


def constant_vector(bx: float, by: float) -> Callable:
    def field(x, y):
        out = np.empty(np.shape(x) + (2,))
        out[..., 0] = bx
        out[..., 1] = by
        return out

    return field


def _zeros(x, y):
    return np.zeros(np.shape(x))


def _sine_variable() -> SobolevProblem:
    pi = np.pi

    def s(x, y):
        return np.sin(pi * x) * np.sin(pi * y)

    def cx(x, y):
        return np.cos(pi * x) * np.sin(pi * y)

    def cy(x, y):
        return np.sin(pi * x) * np.cos(pi * y)

    def f(x, y, t):
        sv, cxv, cyv = s(x, y), cx(x, y), cy(x, y)
        return (
            sv
            - pi * (cxv + cyv)
            + 2 * pi**2 * (x + y + 1) * sv
            - t * pi * (2 * x * cxv + cyv)
            + 2 * pi**2 * t * (x**2 + y) * sv
            + t * pi * (x * cxv + y * cyv)
            + t * (x + y) * sv
        )

    def u_exact(x, y, t):
        return t * s(x, y)

    def grad_u_exact(x, y, t):
        return t * pi * np.stack([cx(x, y), cy(x, y)], axis=-1)

    return SobolevProblem(
        name="variable",
        mu=isotropic(lambda x, y: x + y + 1.0),
        eps=isotropic(lambda x, y: x**2 + y),
        beta=lambda x, y: np.stack([x, y], axis=-1),
        div_beta=lambda x, y: np.full(np.shape(x), 2.0),
        gamma=lambda x, y: x + y,
        f=f,
        dirichlet=lambda x, y, t: np.zeros(np.shape(x)),
        u0=_zeros,
        grad_u0=lambda x, y: np.zeros(np.shape(x) + (2,)),
        u_exact=u_exact,
        grad_u_exact=grad_u_exact,
    )


def _convection_dominated() -> SobolevProblem:
    eps0 = 1e-6

    def e(x, y):
        return np.exp(x + y)

    def f(x, y, t):
        return e(x, y) * (-1.0 + t * (21.0 - 2.0 * eps0))

    def u_exact(x, y, t):
        return t * e(x, y)

    def grad_u_exact(x, y, t):
        ev = t * e(x, y)
        return np.stack([ev, ev], axis=-1)

    return SobolevProblem(
        name="convection",
        mu=constant_matrix(1.0),
        eps=constant_matrix(eps0),
        beta=constant_vector(10.0, 10.0),
        div_beta=_zeros,
        gamma=lambda x, y: np.ones(np.shape(x)),
        f=f,
        dirichlet=u_exact,
        u0=_zeros,
        grad_u0=lambda x, y: np.zeros(np.shape(x) + (2,)),
        u_exact=u_exact,
        grad_u_exact=grad_u_exact,
    )


def _gaussian_bump() -> SobolevProblem:
    def g(x, y):
        return np.exp(-100.0 * ((x - 0.5) ** 2 + (y - 0.5) ** 2))

    def f(x, y, t):
        gv = g(x, y)
        r2 = (x - 0.5) ** 2 + (y - 0.5) ** 2
        lap = (-400.0 + 40000.0 * r2) * gv
        conv = -200.0 * ((x - 0.5) + (y - 0.5)) * gv
        return gv - (1.0 + t) * lap + t * conv + t * gv

    def u_exact(x, y, t):
        return t * g(x, y)

    def grad_u_exact(x, y, t):
        gv = t * g(x, y)
        return np.stack([-200.0 * (x - 0.5) * gv, -200.0 * (y - 0.5) * gv], axis=-1)

    return SobolevProblem(
        name="gaussian",
        mu=constant_matrix(1.0),
        eps=constant_matrix(1.0),
        beta=constant_vector(1.0, 1.0),
        div_beta=_zeros,
        gamma=lambda x, y: np.ones(np.shape(x)),
        f=f,
        dirichlet=u_exact,
        u0=_zeros,
        grad_u0=lambda x, y: np.zeros(np.shape(x) + (2,)),
        u_exact=u_exact,
        grad_u_exact=grad_u_exact,
    )


def polynomial_patch(k: int) -> SobolevProblem:
    """u = t * p with p in P_k, constant unit coefficients and no
    convection: reproduced exactly by the order-k scheme (up to solver
    tolerance), which pins down every assembly path."""
    coeff = {1: (1.0, 2.0, -1.0), 2: (0.5, -1.0, 2.0), 3: (0.25, 1.0, -0.5)}[k]

    def p(x, y):
        base = coeff[0] + coeff[1] * x + coeff[2] * y
        if k >= 2:
            base = base + 0.75 * x * y - 0.5 * x**2
        if k >= 3:
            base = base + 0.3 * x**2 * y - 0.2 * y**3
        return base

    def lap_p(x, y):
        out = np.zeros(np.shape(x))
        if k >= 2:
            out = out - 1.0
        if k >= 3:
            out = out + 0.6 * y - 1.2 * y
        return out

    def grad_p(x, y):
        gx = np.full(np.shape(x), coeff[1])
        gy = np.full(np.shape(x), coeff[2])
        if k >= 2:
            gx = gx + 0.75 * y - 1.0 * x
            gy = gy + 0.75 * x
        if k >= 3:
            gx = gx + 0.6 * x * y
            gy = gy + 0.3 * x**2 - 0.6 * y**2
        return np.stack([gx, gy], axis=-1)

    def f(x, y, t):
        return p(x, y) - lap_p(x, y) - t * lap_p(x, y) + t * p(x, y)

    def u_exact(x, y, t):
        return t * p(x, y)

    return SobolevProblem(
        name=f"polynomial-patch-k{k}",
        mu=constant_matrix(1.0),
        eps=constant_matrix(1.0),
        beta=constant_vector(0.0, 0.0),
        div_beta=_zeros,
        gamma=lambda x, y: np.ones(np.shape(x)),
        f=f,
        dirichlet=u_exact,
        u0=_zeros,
        grad_u0=lambda x, y: np.zeros(np.shape(x) + (2,)),
        u_exact=u_exact,
        grad_u_exact=lambda x, y, t: t * grad_p(x, y),
    )


def quadratic_time() -> SobolevProblem:
    """u = t^2 sin(pi x) sin(pi y) with constant unit coefficients: on a
    moderately fine mesh at k = 2 the backward-Euler O(tau) error dominates,
    exposing the time-stepping order."""
    pi = np.pi

    def s(x, y):
        return np.sin(pi * x) * np.sin(pi * y)

    def f(x, y, t):
        sv = s(x, y)
        return 2 * t * sv + 4 * pi**2 * t * sv + 2 * pi**2 * t**2 * sv + t**2 * sv

    def u_exact(x, y, t):
        return t**2 * s(x, y)

    def grad_u_exact(x, y, t):
        return (
            t**2
            * pi
            * np.stack(
                [np.cos(pi * x) * np.sin(pi * y), np.sin(pi * x) * np.cos(pi * y)], axis=-1
            )
        )

    return SobolevProblem(
        name="quadratic-time",
        mu=constant_matrix(1.0),
        eps=constant_matrix(1.0),
        beta=constant_vector(0.0, 0.0),
        div_beta=_zeros,
        gamma=lambda x, y: np.ones(np.shape(x)),
        f=f,
        dirichlet=lambda x, y, t: np.zeros(np.shape(x)),
        u0=_zeros,
        grad_u0=lambda x, y: np.zeros(np.shape(x) + (2,)),
        u_exact=u_exact,
        grad_u_exact=grad_u_exact,
    )


_CATALOG = {
    "variable": _sine_variable,
    "convection": _convection_dominated,
    "gaussian": _gaussian_bump,
}

PROBLEM_NAMES = tuple(_CATALOG)

#: The paper's example numbers, accepted wherever a problem name is.
_EXAMPLES = {"1": "variable", "2": "convection", "3": "gaussian"}


def get_problem(name: str) -> SobolevProblem:
    """The catalog problem with this name or example number (1, 2, 3)."""
    try:
        return _CATALOG[_EXAMPLES.get(name, name)]()
    except KeyError:
        raise KeyError(
            f"unknown problem {name!r}; available: 1|2|3, {', '.join(PROBLEM_NAMES)}"
        ) from None

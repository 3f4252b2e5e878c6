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
* ``gaussian``    narrow Gaussian bump, the adaptivity workhorse.

Other problems (a CLI problem file, the tests' patch and time-quadratic
solutions) are built from ``SobolevProblem`` and the field helpers below.

All callables are vectorized over point arrays; time enters only through
``f``, ``dirichlet`` and the exact solution.  The first two must broadcast
over t: given (n, 1) columns x, y and a (1, B) row t, they return (n, 1) or (n, B).
Every other field, at n points, gives (n,) values, or (n, 2) or (n, 2, 2)
as ``VALUE_SHAPES`` lists; a scalar field may give one value for all
points.  ``sample`` is the one function that calls a field and checks its
values (``SobolevProblem.sigma`` checks the shapes of gamma and div_beta).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "CoefficientError",
    "SobolevProblem",
    "sample",
    "isotropic",
    "constant_matrix",
    "constant_vector",
    "get_problem",
    "PROBLEM_NAMES",
]


class CoefficientError(ValueError):
    """A problem field gives a value that is not finite, or an mu or eps
    that is not positive definite."""


#: Shape of one value of each field that is not scalar.
VALUE_SHAPES = {"mu": (2, 2), "eps": (2, 2), "beta": (2,), "grad_u0": (2,), "grad_u_exact": (2,)}


def _field_values(name: str, values, lead: tuple) -> np.ndarray:
    """Values of field ``name`` at points whose x and y have shape ``lead``,
    broadcast to lead + ``VALUE_SHAPES`` of the field (one value of a scalar
    field stands for all points); any other shape raises a ``ValueError``."""
    values = np.asarray(values, dtype=float)
    shape = (*lead, *VALUE_SHAPES.get(name, ()))
    if values.shape != shape and (values.ndim or shape != lead):
        want = f"{shape} or ()" if shape == lead else f"{shape}"
        raise ValueError(f"problem.{name} must give shape {want} for x and y of shape {lead}, "
                         f"got {values.shape}")
    return np.broadcast_to(values, shape)


def sample(problem, name: str, points: np.ndarray, *t) -> np.ndarray:
    """Field ``name`` of ``problem`` at points stacked as (..., 2), called once
    on the flat coordinates, at the time t of the exact solution or the 1-D
    times of f and ``dirichlet``, which give (n, B) values at n points and B
    times; the values keep the points' leading shape.  A wrong shape raises a
    ``ValueError``; a value that is not finite, or an mu or eps that is not
    positive definite, a ``CoefficientError`` naming the field, the first bad
    point and its time (the earliest, for f and ``dirichlet``)."""
    xy, fn = points.reshape(-1, 2), getattr(problem, name)
    n = len(xy)
    if name in ("f", "dirichlet"):
        times = t[0]
        values = np.asarray(fn(xy[:, :1], xy[:, 1:], times[None, :]), dtype=float)
        if values.shape not in ((n, 1), (n, len(times))):
            raise ValueError(f"problem.{name} must broadcast over t to shape ({n}, 1) or ({n}, "
                             f"{len(times)}) for (n, 1) points and (1, B) times, got {values.shape}")
        values = np.broadcast_to(values, (n, len(times)))
        bad = ~np.isfinite(values.T)  # (B, n)
    else:
        times = t
        values = _field_values(name, fn(*xy.T, *t), (n,))
        bad = ~np.isfinite(values.reshape(1, n, -1)).all(axis=2)
    what = "finite"
    if not bad.any() and name in ("mu", "eps"):  # the symmetric part is [[a, s], [s, d]]
        a, b, c, d = values.reshape(n, 4).T
        s = 0.5 * (b + c)
        bad, what = ~((a + d > 0) & (a * d - s * s > 0))[None], "positive definite"
    if bad.any():
        j, i = divmod(int(np.argmax(bad)), n)
        when = f", t = {np.ravel(times)[j]:.4g}" if len(times) else ""
        raise CoefficientError(f"{name} is not {what} at ({xy[i, 0]:.4g}, {xy[i, 1]:.4g}){when}")
    return values.reshape(points.shape[:-1] + values.shape[1:])


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
        gamma = _field_values("gamma", self.gamma(x, y), np.shape(x))
        return gamma - 0.5 * _field_values("div_beta", self.div_beta(x, y), np.shape(x))


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

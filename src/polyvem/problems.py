"""Problem catalog: coefficient sets with manufactured exact solutions.

Every problem describes

    u_t - div(mu grad u_t + eps grad u) + beta . grad u + gamma u = f

on the unit square for t in (0, T] with Dirichlet data ``dirichlet`` and
initial value ``u0``.  The built-in problems carry their exact solution
(and gradient) so convergence studies can measure errors directly:

* ``variable``    smooth sine solution, fully variable coefficients
                  (sigma changes sign, which leaves a coefficient note),
* ``convection``  convection-dominated transport (eps = 1e-6, beta = (10,10))
                  with an exponential solution and non-homogeneous data,
* ``gaussian``    narrow Gaussian bump, the adaptivity workhorse.

Other problems (a CLI problem file, the tests' patch and time-quadratic
solutions) are built from ``SobolevProblem`` and the field helpers below.

All callables are vectorized over point arrays; time enters only through
``f``, ``dirichlet`` and the exact solution.  The first two must broadcast
over t: given (n, 1) columns x, y and a (1, B) row t, they return (n, 1) or (n, B).
Every other field, at n points, gives (n,) values, or (n, 2) or (n, 2, 2)
as ``VALUE_SHAPES`` lists.  Any field may instead give one value, of shape
() or ``VALUE_SHAPES``, for all points.  ``sample`` is the one function that
calls a field and checks its values; ``forms`` forms the reaction
sigma = gamma - div(beta)/2 from the sampled gamma and div_beta.
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


def sample(problem, name: str, points: np.ndarray, *t) -> np.ndarray:
    """Field ``name`` of ``problem`` at points stacked as (..., 2), called once
    on the flat coordinates, at the time t of the exact solution or the 1-D
    times of f and ``dirichlet``, which give (n, B) values at n points and B
    times; one value stands for all points, and the values keep the points'
    leading shape.  A wrong shape raises a ``ValueError``; a value that is not
    finite, or an mu or eps that is not positive definite, a
    ``CoefficientError`` naming the field, the first bad point and its time
    (the earliest, for f and ``dirichlet``)."""
    xy, fn = points.reshape(-1, 2), getattr(problem, name)
    n = len(xy)
    if name in ("f", "dirichlet"):
        times = t[0]
        values = fn(xy[:, :1], xy[:, 1:], times[None, :])
        shape, steps = (n, len(times)), len(times)
        allowed = [(n, 1), shape, ()]
        rule = "broadcast over t to shape {} for (n, 1) points and (1, B) times"
    else:
        times, steps = t, 1
        values = fn(*xy.T, *t)
        shape = (n, *VALUE_SHAPES.get(name, ()))
        allowed, rule = [shape, shape[1:]], f"give shape {{}} for x and y of shape {(n,)}"
    values = np.asarray(values, dtype=float)
    if values.shape not in allowed:
        want = " or ".join(map(str, allowed))
        raise ValueError(f"problem.{name} must {rule.format(want)}, got {values.shape}")
    values = np.broadcast_to(values, shape)
    bad = ~np.isfinite(values.reshape(n, steps, -1)).all(axis=2).T  # (steps, n)
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
    """Coefficients, data and (optionally) the exact solution; each field
    gives a shape noted on its right: its values at n points, or one value
    for all of them."""

    name: str
    mu: Callable  # (x, y) -> (n, 2, 2) or (2, 2)
    eps: Callable  # (x, y) -> (n, 2, 2) or (2, 2)
    beta: Callable  # (x, y) -> (n, 2) or (2,)
    div_beta: Callable  # (x, y) -> (n,) or ()
    gamma: Callable  # (x, y) -> (n,) or ()
    f: Callable  # (x, y, t) -> (n, 1), (n, B) or () for (n, 1) x, y and (1, B) t
    dirichlet: Callable  # (x, y, t) -> (n, 1), (n, B) or (), as f
    u0: Callable  # (x, y) -> (n,) or ()
    grad_u0: Callable | None = None  # (x, y) -> (n, 2) or (2,)
    u_exact: Callable | None = None  # (x, y, t) -> (n,) or ()
    grad_u_exact: Callable | None = None  # (x, y, t) -> (n, 2) or (2,)


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
    return isotropic(lambda x, y: float(value))


def constant_vector(bx: float, by: float) -> Callable:
    return lambda x, y: np.array([bx, by], dtype=float)


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
        div_beta=lambda x, y: 2.0,
        gamma=lambda x, y: x + y,
        f=f,
        dirichlet=lambda x, y, t: 0.0,
        u0=lambda x, y: 0.0,
        grad_u0=lambda x, y: np.zeros(2),
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
        div_beta=lambda x, y: 0.0,
        gamma=lambda x, y: 1.0,
        f=f,
        dirichlet=u_exact,
        u0=lambda x, y: 0.0,
        grad_u0=lambda x, y: np.zeros(2),
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
        div_beta=lambda x, y: 0.0,
        gamma=lambda x, y: 1.0,
        f=f,
        dirichlet=u_exact,
        u0=lambda x, y: 0.0,
        grad_u0=lambda x, y: np.zeros(2),
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

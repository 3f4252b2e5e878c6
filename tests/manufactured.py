"""Manufactured test problems, each written once as its exact solution
u(x, y, t) in sympy; the source, the gradient and the initial data are
derived from it.  ``residual`` is the one symbolic form of the equation,
also the oracle of the catalog problems' hand-written sources."""

from functools import cache

import numpy as np
import sympy as sp

from polyvem.problems import SobolevProblem, constant_matrix, constant_vector

X, Y, T = sp.symbols("x y t", real=True)


def residual(u, mu, eps, beta, gamma):
    """u_t - div(mu grad u_t + eps grad u) + beta . grad u + gamma u for
    scalar expressions mu, eps and gamma and a pair beta."""

    def div_grad(c, v):
        return sp.diff(c * sp.diff(v, X), X) + sp.diff(c * sp.diff(v, Y), Y)

    ut = sp.diff(u, T)
    conv = beta[0] * sp.diff(u, X) + beta[1] * sp.diff(u, Y)
    return ut - div_grad(mu, ut) - div_grad(eps, u) + conv + gamma * u


def _field(exprs, *symbols):
    """The numpy field of one expression, or of two stacked last; a stacked
    pair is broadcast to the shape of its arguments, so that a constant
    component stacks with a varying one."""
    fn = sp.lambdify(symbols, exprs, "numpy")

    def field(*args):
        values = fn(*args)
        if len(values) == 1:
            return values[0]
        shape = np.broadcast_shapes(*map(np.shape, args))
        return np.stack([np.broadcast_to(v, shape) for v in values], axis=-1)

    return field


def manufactured(name: str, u) -> SobolevProblem:
    """The problem with exact solution u(x, y, t), unit mu, eps and gamma and
    no convection: f, the Dirichlet data, grad u, u0 and grad u0 are derived."""
    grad = [sp.diff(u, X), sp.diff(u, Y)]
    u_exact = _field([u], X, Y, T)
    return SobolevProblem(
        name=name,
        mu=constant_matrix(1.0),
        eps=constant_matrix(1.0),
        beta=constant_vector(0.0, 0.0),
        div_beta=_field([0], X, Y),
        gamma=_field([1], X, Y),
        f=_field([residual(u, 1, 1, (0, 0), 1)], X, Y, T),
        dirichlet=u_exact,
        u0=_field([u.subs(T, 0)], X, Y),
        grad_u0=_field([g.subs(T, 0) for g in grad], X, Y),
        u_exact=u_exact,
        grad_u_exact=_field(grad, X, Y, T),
    )


@cache
def polynomial_patch(k: int) -> SobolevProblem:
    """u = t p with p in P_k: reproduced exactly by the order-k scheme (up
    to solver tolerance), which pins down every assembly path."""
    p = {
        1: 1 + 2 * X - Y,
        2: sp.Rational(1, 2) - X + 2 * Y + sp.Rational(3, 4) * X * Y - X**2 / 2,
        3: sp.Rational(1, 4) + X - Y / 2 + sp.Rational(3, 4) * X * Y - X**2 / 2
        + sp.Rational(3, 10) * X**2 * Y - Y**3 / 5,
    }[k]
    return manufactured(f"polynomial-patch-k{k}", T * p)


@cache
def quadratic_time() -> SobolevProblem:
    """u = t^2 sin(pi x) sin(pi y): on a moderately fine mesh at k = 2 the
    backward-Euler O(tau) error dominates, exposing the time-stepping order."""
    return manufactured("quadratic-time", T**2 * sp.sin(sp.pi * X) * sp.sin(sp.pi * Y))

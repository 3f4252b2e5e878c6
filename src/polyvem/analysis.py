"""Error measurement, convergence sweeps, and the adaptive refinement study.

The error quantities are the computable surrogates

    E0h^2 = sum_K || u - P0_k u_h ||_{0,K}^2
    E1h^2 = sum_K || grad u - P0_{k-1} grad u_h ||_{0,K}^2

evaluated with a triangle rule of degree 2k + 4 against assembly's 2k
(which has degree 4 as its floor), mapped onto the triangles the mesh
stores for each cell, so the measurement error stays well below the
discretization error being measured.  Errors and indicators run over the
mesh's cell groups, each group zipped with its dof array: one basis
evaluation and one exact-solution call per group.

The adaptive study's uniform ladder starts on the adaptive study's first
mesh, which is solved once for both histories.
"""

from __future__ import annotations

import io
import logging
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .mesh import (
    PolyMesh,
    generate_concave_mesh,
    generate_distorted_square_mesh,
    generate_voronoi_mesh,
    refine_cells,
)
from .forms import stabilization_scales
from .problems import SobolevProblem, sample
from .projectors import polynomial_dimension
from .quadrature import map_to_triangle, triangle_rule
from .system import GlobalSystem, TimeStepperConfig, assemble, run_time_loop

__all__ = [
    "ErrorPair",
    "ConvergenceRecord",
    "AdaptiveStudy",
    "compute_errors",
    "compute_eoc",
    "least_squares_slope",
    "run_convergence_sweep",
    "error_indicators",
    "dorfler_marking",
    "run_adaptive_study",
    "matched_dof_comparison",
    "record_to_csv",
    "MESH_GENERATORS",
    "MESH_FAMILIES",
    "family_mesh",
]

logger = logging.getLogger(__name__)

#: The generator of each mesh family, called as (size, distortion, Lloyd
#: iterations, seed); size is the grid resolution n, or the Voronoi seed count.
MESH_GENERATORS = {
    "voronoi": lambda size, distortion, lloyd, seed: generate_voronoi_mesh(
        size, lloyd_iterations=lloyd, seed=seed
    ),
    "distorted": lambda size, distortion, lloyd, seed: generate_distorted_square_mesh(
        size, distortion, seed=seed
    ),
    "concave": lambda size, distortion, lloyd, seed: generate_concave_mesh(size),
}
MESH_FAMILIES = tuple(MESH_GENERATORS)

#: Distortion and Lloyd steps of every family mesh, and the CLI's defaults for them.
DISTORTION, LLOYD_STEPS = 0.3, 10

#: Seed counts whose Voronoi tessellations roughly halve h every other level.
VORONOI_LEVEL_SEEDS = (16, 30, 120, 224, 480, 960)


# ---------------------------------------------------------------------------
# error functionals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ErrorPair:
    """Errors of one solve, with the size data needed for EOC and CSV rows."""

    h: float
    e0: float
    e1: float
    num_dofs: int
    num_active: int
    seconds: float = 0.0

    def __post_init__(self):
        for label, value in (("E0h", self.e0), ("E1h", self.e1)):
            if not math.isfinite(value) or value < 0:
                raise ValueError(f"{label} must be a finite nonnegative number")


@dataclass
class ConvergenceRecord:
    """Errors over a refinement ladder for one polynomial order."""

    family: str
    k: int
    pairs: list[ErrorPair]

    @property
    def h(self) -> np.ndarray:
        return np.array([p.h for p in self.pairs])

    @property
    def e0(self) -> np.ndarray:
        return np.array([p.e0 for p in self.pairs])

    @property
    def e1(self) -> np.ndarray:
        return np.array([p.e1 for p in self.pairs])

    @property
    def active_dofs(self) -> np.ndarray:
        return np.array([p.num_active for p in self.pairs])


def compute_errors(system: GlobalSystem, u: np.ndarray, t: float) -> ErrorPair:
    """Measure E0h and E1h of a dof vector against the exact solution at t."""
    problem = system.problem
    if problem.u_exact is None or problem.grad_u_exact is None:
        raise ValueError(
            f"problem {problem.name!r} carries no exact solution to measure against"
        )
    k = system.k
    nk = polynomial_dimension(k)
    nk1 = polynomial_dimension(k - 1)
    dofmap = system.dofmap

    rule = triangle_rule(2 * k + 4)
    e0_sq = 0.0
    e1_sq = 0.0
    for group, gdofs in zip(system.groups, dofmap.groups):
        pts, w = map_to_triangle(rule, group.geom.triangles)
        vals = group.basis.eval(pts)
        ud = u[gdofs][..., None]

        u_h = (vals[..., :nk] @ (group.pi0_star @ ud))[..., 0]
        grad_coeffs = (group.pi0_grad_star @ ud[:, None])[..., 0]  # (G, 2, nk1)
        grad_h = np.einsum("gqi,gdi->gqd", vals[..., :nk1], grad_coeffs)

        u_e = sample(problem, "u_exact", pts, t)
        g_e = sample(problem, "grad_u_exact", pts, t)

        e0_sq += np.sum(w * (u_e - u_h) ** 2)
        e1_sq += np.sum(w[..., None] * (g_e - grad_h) ** 2)

    return ErrorPair(
        h=system.mesh.h,
        e0=math.sqrt(e0_sq),
        e1=math.sqrt(e1_sq),
        num_dofs=dofmap.size,
        num_active=len(dofmap.active),
    )


def compute_eoc(h, errors) -> np.ndarray:
    """Estimated orders log(e_prev/e_cur)/log(h_prev/h_cur); first entry NaN."""
    h = np.asarray(h, dtype=float)
    errors = np.asarray(errors, dtype=float)
    if h.shape != errors.shape or h.ndim != 1 or len(h) < 2:
        raise ValueError("need matching 1-d h and error sequences with >= 2 levels")
    if np.any(np.diff(h) >= 0):
        raise ValueError("mesh sizes must be strictly decreasing")
    out = np.full(len(h), np.nan)
    with np.errstate(divide="ignore", invalid="ignore"):  # a zero error gives inf or NaN
        out[1:] = np.log(errors[:-1] / errors[1:]) / np.log(h[:-1] / h[1:])
    return out


def least_squares_slope(h, errors) -> float:
    """Slope of log(error) against log(h) over the whole ladder."""
    h = np.asarray(h, dtype=float)
    errors = np.asarray(errors, dtype=float)
    if len(h) < 2:
        raise ValueError("need at least two levels for a slope")
    return float(np.polyfit(np.log(h), np.log(errors), 1)[0])


# ---------------------------------------------------------------------------
# convergence sweeps
# ---------------------------------------------------------------------------


def _level_size(family: str, level: int) -> int:
    """Generator size of level ``level`` of the family's ladder, or a ``ValueError``.

    distorted: n = 5 * 2^level randomly distorted squares (h halves exactly
    in distribution); voronoi: seed counts chosen so h roughly halves every
    other level; concave: n = 2 * 2^level with exact ratio-2 mesh sizes.
    """
    if level < 0:
        raise ValueError(f"mesh level must be non-negative, got {level}")
    if family not in MESH_GENERATORS:
        raise ValueError(f"unknown mesh family {family!r}; expected one of {MESH_FAMILIES}")
    if family == "voronoi":
        if level >= len(VORONOI_LEVEL_SEEDS):
            raise ValueError(f"voronoi ladder defines {len(VORONOI_LEVEL_SEEDS)} levels")
        return VORONOI_LEVEL_SEEDS[level]
    return (5 if family == "distorted" else 2) * 2**level


def family_mesh(family: str, level: int, seed: int = 0) -> PolyMesh:
    """Level ``level`` of the family's refinement ladder (see ``_level_size``)."""
    size = _level_size(family, level)
    return MESH_GENERATORS[family](size, DISTORTION, LLOYD_STEPS, seed + level)


def _solve_level(problem, family, k, level, config, seed):
    _, _, pair = _solve_on_mesh(family_mesh(family, level, seed=seed), k, problem, config)
    logger.info(
        "%s/%s k=%d level=%d: h=%.4e E0h=%.4e E1h=%.4e (%.2fs)",
        problem.name,
        family,
        k,
        level,
        pair.h,
        pair.e0,
        pair.e1,
        pair.seconds,
    )
    return pair


def run_convergence_sweep(
    problem: SobolevProblem,
    family: str,
    k: int,
    levels: int,
    tau: float,
    t_end: float,
    seed: int,
) -> ConvergenceRecord:
    """Solve the problem on ``levels`` nested meshes and collect errors.

    Levels are independent solves on a pool of POLYVEM_THREADS threads
    (default 1), with results merged in level order, so output is
    scheduling-independent.
    """
    if levels < 1:
        raise ValueError("levels must be >= 1")
    _level_size(family, levels - 1)  # the deepest level exists before any solve
    config = TimeStepperConfig(tau=tau, t_end=t_end)
    threads = os.environ.get("POLYVEM_THREADS", "1")
    try:
        workers = max(1, int(threads))
    except ValueError:
        raise ValueError(f"POLYVEM_THREADS must be an integer, got {threads!r}") from None
    solve = partial(_solve_level, problem, family, k, config=config, seed=seed)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        pairs = list(pool.map(solve, range(levels)))
    return ConvergenceRecord(family=family, k=k, pairs=pairs)


# ---------------------------------------------------------------------------
# adaptive refinement study
# ---------------------------------------------------------------------------


def error_indicators(system: GlobalSystem, u: np.ndarray) -> np.ndarray:
    """Exact-solution-free cell indicators.

    eta_K = || P0_k u_h - Pnabla_k u_h ||_{0,K} + sqrt(S3_K(u_h, u_h)):
    the discrepancy between the two computable projections plus the part of
    the discrete energy the projections cannot see.  Both terms vanish when
    the discrete solution restricted to K is a polynomial of degree <= k.
    """
    out = np.empty(system.mesh.num_cells)
    for group, gdofs in zip(system.groups, system.dofmap.groups):
        cells = group.geom.index
        s3_scale = stabilization_scales(group, system.problem)[2]
        ud = u[gdofs][..., None]
        diff = group.pi0_star @ ud - group.pi_grad_star @ ud
        proj_gap_sq = (np.swapaxes(diff, 1, 2) @ group.mass_monomials @ diff)[:, 0, 0]
        # S3 energy via the dof-space residual vector Q u, not the assembled
        # Q^T Q matrix: the matrix form cannot cancel below rounding noise,
        # which would mask the indicator's zero on polynomial solutions.
        q_u = (group.stab_q @ ud)[..., 0]
        stab_sq = s3_scale * np.einsum("gn,gn->g", q_u, q_u)
        out[cells] = np.sqrt(np.maximum(proj_gap_sq, 0.0)) + np.sqrt(stab_sq)
    return out


def _check_fraction(theta: float) -> None:
    if not 0.0 < theta <= 1.0:
        raise ValueError("marking fraction must lie in (0, 1]")


def dorfler_marking(indicators: np.ndarray, theta: float) -> np.ndarray:
    """Smallest cell set whose squared indicators carry a theta fraction."""
    _check_fraction(theta)
    eta_sq = np.asarray(indicators, dtype=float) ** 2
    total = eta_sq.sum()
    if total <= 0.0:
        return np.array([], dtype=int)
    order = np.argsort(eta_sq)[::-1]
    cumulative = np.cumsum(eta_sq[order])
    count = int(np.searchsorted(cumulative, theta * total) + 1)
    return np.sort(order[:count])


@dataclass
class AdaptiveStudy:
    """Paired uniform/adaptive refinement histories plus the final mesh."""

    uniform: ConvergenceRecord
    adaptive: ConvergenceRecord
    final_mesh: PolyMesh


def _solve_on_mesh(mesh, k, problem, config):
    t0 = time.perf_counter()
    system = assemble(mesh, k, problem)
    result = run_time_loop(system, config)
    seconds = time.perf_counter() - t0
    pair = replace(compute_errors(system, result.u, result.t), seconds=seconds)
    return system, result, pair


def run_adaptive_study(
    problem: SobolevProblem,
    k: int,
    cycles: int,
    start_n: int,
    theta: float,
    tau: float,
    t_end: float,
) -> AdaptiveStudy:
    """Compare uniform square refinement against indicator-driven refinement.

    The adaptive loop is solve -> estimate -> Doerfler-mark -> refine; the
    uniform ladder doubles n each cycle from the loop's first solve.  Both
    histories record (dofs, E0h) to be compared at matched dof counts.
    """
    if cycles < 1:
        raise ValueError("cycles must be >= 1")
    _check_fraction(theta)
    config = TimeStepperConfig(tau=tau, t_end=t_end)

    adaptive = ConvergenceRecord(family="adaptive", k=k, pairs=[])
    mesh = generate_distorted_square_mesh(start_n, 0.0, seed=0)
    for cycle in range(cycles):
        system, result, pair = _solve_on_mesh(mesh, k, problem, config)
        adaptive.pairs.append(pair)
        logger.info(
            "adaptive cycle %d: cells=%d active=%d E0h=%.4e",
            cycle,
            mesh.num_cells,
            pair.num_active,
            pair.e0,
        )
        if cycle < cycles - 1:
            eta = error_indicators(system, result.u)
            marked = dorfler_marking(eta, theta=theta)
            mesh = refine_cells(mesh, marked)

    uniform = ConvergenceRecord("uniform", k, pairs=adaptive.pairs[:1])
    for cycle in range(1, cycles):
        n = start_n * 2**cycle
        if uniform.pairs[-1].num_active >= adaptive.pairs[-1].num_active:
            break  # uniform ladder already covers the adaptive dof range
        umesh = generate_distorted_square_mesh(n, 0.0, seed=0)
        _, _, pair = _solve_on_mesh(umesh, k, problem, config)
        uniform.pairs.append(pair)
        logger.info("uniform level %d: n=%d active=%d E0h=%.4e", cycle, n, pair.num_active, pair.e0)

    return AdaptiveStudy(uniform=uniform, adaptive=adaptive, final_mesh=mesh)


def matched_dof_comparison(study: AdaptiveStudy) -> list[tuple[int, float, float]]:
    """Adaptive points with the uniform error log-log interpolated to the
    same active-dof count: (dofs, adaptive E0h, uniform E0h) triples."""
    u_dofs = study.uniform.active_dofs.astype(float)
    u_err = study.uniform.e0
    if len(u_dofs) < 2:
        return []
    lo, hi = u_dofs.min(), u_dofs.max()
    out = []
    for pair in study.adaptive.pairs:
        n = float(pair.num_active)
        if lo <= n <= hi:
            log_e = np.interp(math.log(n), np.log(u_dofs), np.log(u_err))
            out.append((pair.num_active, pair.e0, math.exp(log_e)))
    return out


# ---------------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------------

CSV_HEADER = "k,h,dofs,E0h,EOC0,E1h,EOC1,seconds"


def _eoc_or_blank(record: ConvergenceRecord, errors: np.ndarray) -> np.ndarray:
    """EOC column, or all-NaN when it is undefined (one level, or a ladder
    whose h does not decrease, as in locally refined meshes)."""
    try:
        return compute_eoc(record.h, errors)
    except ValueError:
        return np.full(len(record.pairs), np.nan)


def record_to_csv(record: ConvergenceRecord) -> str:
    """Render one record in the fixed column layout (EOC blank on row one)."""
    buf = io.StringIO()
    buf.write(CSV_HEADER + "\n")
    eoc0 = _eoc_or_blank(record, record.e0)
    eoc1 = _eoc_or_blank(record, record.e1)
    for i, pair in enumerate(record.pairs):
        c0 = "" if np.isnan(eoc0[i]) else f"{eoc0[i]:.4f}"
        c1 = "" if np.isnan(eoc1[i]) else f"{eoc1[i]:.4f}"
        buf.write(
            f"{record.k},{pair.h:.6e},{pair.num_dofs},{pair.e0:.6e},{c0},"
            f"{pair.e1:.6e},{c1},{pair.seconds:.3f}\n"
        )
    return buf.getvalue()

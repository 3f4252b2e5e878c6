"""Error measurement, convergence sweeps, and the adaptive refinement study.

The error quantities are the computable surrogates

    E0h^2 = sum_K || u - P0_k u_h ||_{0,K}^2
    E1h^2 = sum_K || grad u - P0_{k-1} grad u_h ||_{0,K}^2

evaluated with a quadrature rule two orders finer than the one used for
assembly, mapped onto each element's stored triangulation, so the
measurement error stays well below the discretization error being
measured.
"""

from __future__ import annotations

import io
import logging
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .mesh import (
    PolyMesh,
    generate_concave_mesh,
    generate_distorted_square_mesh,
    generate_voronoi_mesh,
    refine_cells,
)
from .forms import constant_coefficient_scales
from .problems import SobolevProblem, get_problem
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
    "write_record_csv",
    "MESH_FAMILIES",
    "family_mesh",
]

logger = logging.getLogger(__name__)

MESH_FAMILIES = ("voronoi", "distorted", "concave")

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

    problem: str
    family: str
    k: int
    pairs: list[ErrorPair] = field(default_factory=list)

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
    def dofs(self) -> np.ndarray:
        return np.array([p.num_dofs for p in self.pairs])

    @property
    def active_dofs(self) -> np.ndarray:
        return np.array([p.num_active for p in self.pairs])

    def eoc0(self) -> np.ndarray:
        return compute_eoc(self.h, self.e0)

    def eoc1(self) -> np.ndarray:
        return compute_eoc(self.h, self.e1)


def compute_errors(
    system: GlobalSystem,
    u: np.ndarray,
    t: float,
    *,
    quad_order: int | None = None,
    seconds: float = 0.0,
) -> ErrorPair:
    """Measure E0h and E1h of a dof vector against the exact solution at t."""
    problem = system.problem
    if problem.u_exact is None or problem.grad_u_exact is None:
        raise ValueError(
            f"problem {problem.name!r} carries no exact solution to measure against"
        )
    k = system.k
    order = quad_order if quad_order is not None else 2 * k + 4
    nk = polynomial_dimension(k)
    nk1 = polynomial_dimension(k - 1)
    dofmap = system.dofmap

    rule = triangle_rule(order)
    e0_sq = 0.0
    e1_sq = 0.0
    for ci, el in enumerate(system.elements):
        pts, w = map_to_triangle(rule, el.triangles)
        vals = el.basis.eval(pts)
        ud = u[dofmap.cell_dofs(ci)]

        u_h = vals[:, :nk] @ (el.pi0_star @ ud)
        g_x = vals[:, :nk1] @ (el.pi0_grad_star[0] @ ud)
        g_y = vals[:, :nk1] @ (el.pi0_grad_star[1] @ ud)

        u_e = np.asarray(problem.u_exact(pts[:, 0], pts[:, 1], t), dtype=float)
        g_e = np.asarray(problem.grad_u_exact(pts[:, 0], pts[:, 1], t), dtype=float)

        e0_sq += w @ (u_e - u_h) ** 2
        e1_sq += w @ ((g_e[:, 0] - g_x) ** 2 + (g_e[:, 1] - g_y) ** 2)

    return ErrorPair(
        h=system.mesh.h,
        e0=math.sqrt(max(e0_sq, 0.0)),
        e1=math.sqrt(max(e1_sq, 0.0)),
        num_dofs=dofmap.size,
        num_active=len(dofmap.active),
        seconds=seconds,
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
    with np.errstate(divide="ignore"):
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


def family_mesh(family: str, level: int, seed: int = 0) -> PolyMesh:
    """Level ``level`` of a refinement ladder of the given mesh family.

    distorted: n = 5 * 2^level randomly distorted squares (h halves exactly
    in distribution); voronoi: seed counts chosen so h roughly halves every
    other level; concave: n = 2 * 2^level with exact ratio-2 mesh sizes.
    """
    if family == "distorted":
        return generate_distorted_square_mesh(5 * 2**level, 0.3, seed=seed + level)
    if family == "voronoi":
        if level >= len(VORONOI_LEVEL_SEEDS):
            raise ValueError(f"voronoi ladder defines {len(VORONOI_LEVEL_SEEDS)} levels")
        return generate_voronoi_mesh(
            VORONOI_LEVEL_SEEDS[level], lloyd_iterations=10, seed=seed + level
        )
    if family == "concave":
        return generate_concave_mesh(2 * 2**level)
    raise ValueError(f"unknown mesh family {family!r}; expected one of {MESH_FAMILIES}")


def _solve_level(problem, family, k, level, tau, t_end, seed):
    mesh = family_mesh(family, level, seed=seed)
    t0 = time.perf_counter()
    system = assemble(mesh, k, problem)
    result = run_time_loop(system, TimeStepperConfig(tau=tau, t_end=t_end))
    seconds = time.perf_counter() - t0
    pair = compute_errors(system, result.u, result.t, seconds=seconds)
    logger.info(
        "%s/%s k=%d level=%d: h=%.4e E0h=%.4e E1h=%.4e (%.2fs)",
        problem.name,
        family,
        k,
        level,
        pair.h,
        pair.e0,
        pair.e1,
        seconds,
    )
    return pair


def run_convergence_sweep(
    problem_name: str,
    family: str,
    k: int,
    levels: int = 4,
    tau: float = 1e-3,
    t_end: float = 1.0,
    seed: int = 0,
) -> ConvergenceRecord:
    """Solve the problem on ``levels`` nested meshes and collect errors.

    Levels are independent solves; POLYVEM_THREADS > 1 runs them in parallel
    with results merged in level order, so output is scheduling-independent.
    """
    problem = get_problem(problem_name) if isinstance(problem_name, str) else problem_name
    if levels < 1:
        raise ValueError("levels must be >= 1")
    workers = max(1, int(os.environ.get("POLYVEM_THREADS", "1")))
    args = [(problem, family, k, level, tau, t_end, seed) for level in range(levels)]
    if workers == 1 or levels == 1:
        pairs = [_solve_level(*a) for a in args]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            pairs = list(pool.map(lambda a: _solve_level(*a), args))
    name = problem.name if not isinstance(problem_name, str) else problem_name
    return ConvergenceRecord(problem=name, family=family, k=k, pairs=pairs)


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
    dofmap = system.dofmap
    out = np.empty(system.mesh.num_cells)
    for ci, el in enumerate(system.elements):
        ud = u[dofmap.cell_dofs(ci)]
        diff = el.pi0_star @ ud - el.pi_grad_star @ ud
        proj_gap_sq = float(diff @ (el.mass_monomials @ diff))
        _, eps_k, sigma_k = constant_coefficient_scales(
            system.problem, el.geom.centroid
        )
        # S3 energy via the dof-space residual vector Q u, not the assembled
        # Q^T Q matrix: the matrix form cannot cancel below rounding noise,
        # which would mask the indicator's zero on polynomial solutions.
        q_u = el.stab_q @ ud
        stab_sq = (eps_k + sigma_k * el.geom.area) * float(q_u @ q_u)
        out[ci] = math.sqrt(max(proj_gap_sq, 0.0)) + math.sqrt(max(stab_sq, 0.0))
    return out


def dorfler_marking(indicators: np.ndarray, theta: float = 0.3) -> np.ndarray:
    """Smallest cell set whose squared indicators carry a theta fraction."""
    if not 0.0 < theta <= 1.0:
        raise ValueError("marking fraction must lie in (0, 1]")
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


def _solve_on_mesh(mesh, k, problem, tau, t_end):
    t0 = time.perf_counter()
    system = assemble(mesh, k, problem)
    result = run_time_loop(system, TimeStepperConfig(tau=tau, t_end=t_end))
    seconds = time.perf_counter() - t0
    pair = compute_errors(system, result.u, result.t, seconds=seconds)
    return system, result, pair


def run_adaptive_study(
    problem_name: str = "gaussian",
    k: int = 1,
    cycles: int = 4,
    start_n: int = 8,
    theta: float = 0.3,
    tau: float = 1e-3,
    t_end: float = 1.0,
) -> AdaptiveStudy:
    """Compare uniform square refinement against indicator-driven refinement.

    The adaptive loop is solve -> estimate -> Doerfler-mark -> refine; the
    uniform ladder doubles n each cycle.  Both histories record (dofs, E0h)
    so the curves can be compared at matched dof counts.
    """
    problem = get_problem(problem_name) if isinstance(problem_name, str) else problem_name
    if cycles < 1:
        raise ValueError("cycles must be >= 1")

    adaptive = ConvergenceRecord(problem=problem.name, family="adaptive", k=k)
    mesh = generate_distorted_square_mesh(start_n, 0.0, seed=0)
    for cycle in range(cycles):
        system, result, pair = _solve_on_mesh(mesh, k, problem, tau, t_end)
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

    uniform = ConvergenceRecord(problem=problem.name, family="uniform", k=k)
    for cycle in range(cycles):
        n = start_n * 2**cycle
        if uniform.pairs and uniform.pairs[-1].num_active >= adaptive.pairs[-1].num_active:
            break  # uniform ladder already covers the adaptive dof range
        umesh = generate_distorted_square_mesh(n, 0.0, seed=0)
        _, _, pair = _solve_on_mesh(umesh, k, problem, tau, t_end)
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
    if len(record.pairs) >= 2:
        try:
            return compute_eoc(record.h, errors)
        except ValueError:
            pass
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


def write_record_csv(path, record: ConvergenceRecord) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(record_to_csv(record))

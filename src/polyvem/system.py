"""Global assembly, Dirichlet handling, initial projection and time stepping.

Global dofs are numbered vertices first, then (k-1) interior points per
edge (in the mesh's edge order, from the lower vertex index), then k(k-1)/2
moments per cell.  Dirichlet data occupies boundary vertex and boundary
edge dofs; moments are always interior.

The fully discrete scheme is backward Euler:

    (M1 + M2 + tau (A + B)) U^n = (M1 + M2) U^{n-1} + tau F(t_n)

with boundary values moved to the right-hand side.  The system matrix is
time-independent and factorized once per run; every solve must meet the
relative-residual contract ``RESIDUAL_TOL`` (1e-12), enforced with
iterative refinement.

F(t_n) is ``load_map @ f(quad_points, t_n)``, formed for a block of steps
from one sample of f (and of the Dirichlet data) at all the block's times:
``quad_points`` are the points of each element's one rule, of degree 2k,
which is exact for (f, pi0 phi_i) whenever f is in P_k.

Everything runs over the mesh's cell groups (``PolyMesh.cell_groups``,
which the mesh triangulates and groups once): the dof map keeps one (G, N)
dof array per group, assembly builds each group's elements, forms and
load block as stacks and scatters them through one COO index helper (one
index for the four forms, one for the load map), and the initial
projection, errors and indicators zip groups with their dofs.
Every field of the problem is read through ``problems.sample``, which
checks its shape and finiteness: f and the Dirichlet data once per block
here, u0 at the boundary dofs.  Only ``forms`` asks for a coefficient,
always through ``problems.sample``, and the initial projection takes each
group's load from ``forms.initial_projection_load`` and keeps the scatter,
the Dirichlet split and the solve; assembly passes each group's lowest
sigma to ``forms.coefficient_notes``, which returns at most one note per
assembly and logs it.
Per-cell access (``GlobalSystem.elements``, ``GlobalDofMap.cell_dofs``)
goes through the mesh's (group, position) slot of the cell.  Snapshots are
read with the rules of ``polyvem.textfile`` that the mesh file shares.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .forms import build_local_forms, coefficient_notes, initial_projection_load, load_map_block
from .mesh import PolyMesh
from .problems import sample
from .projectors import (
    SUPPORTED_ORDERS,
    LocalElement,
    build_element,
    interpolate,
    polynomial_dimension,
)
from .quadrature import lobatto_edge_points
from .textfile import LineReader, read_text, write_text

__all__ = [
    "SolverError",
    "RESIDUAL_TOL",
    "GlobalDofMap",
    "GlobalSystem",
    "TimeStepperConfig",
    "TimeResult",
    "build_dof_map",
    "assemble",
    "dirichlet_values",
    "project_initial",
    "run_time_loop",
    "LinearSolver",
    "solution_to_string",
    "write_solution",
    "solution_from_string",
    "read_solution",
]

logger = logging.getLogger(__name__)


class SolverError(Exception):
    """Linear solver failed to meet the residual contract."""


# ---------------------------------------------------------------------------
# dof numbering
# ---------------------------------------------------------------------------


@dataclass
class GlobalDofMap:
    """Deterministic global numbering: vertices, edge points, cell moments."""

    groups: list[np.ndarray]  # (G, N) global dofs of each mesh cell group
    cell_slot: np.ndarray  # the mesh's (group, position) of each cell
    active: np.ndarray  # ascending dofs off the Dirichlet boundary
    boundary: np.ndarray  # ascending Dirichlet dofs (all geometric)
    dof_points: np.ndarray  # geometric dofs only (vertices + edge points)

    @property
    def size(self) -> int:
        return len(self.active) + len(self.boundary)

    def cell_dofs(self, ci: int) -> np.ndarray:
        group, pos = self.cell_slot[ci]
        return self.groups[group][pos]


def build_dof_map(mesh: PolyMesh, k: int) -> GlobalDofMap:
    nv, ne, nc = mesh.num_vertices, mesh.num_edges, mesh.num_cells
    per_edge = k - 1
    nm = polynomial_dimension(k - 2)
    cell_offset = nv + per_edge * ne

    size = cell_offset + nm * nc
    boundary_mask = np.zeros(size, dtype=bool)
    boundary_mask[:nv] = mesh.boundary_vertices
    boundary_mask[nv:cell_offset] = np.repeat(mesh.boundary_edges, per_edge)

    ends = mesh.vertices[mesh.edges]
    edge_points = lobatto_edge_points(ends[:, 0], ends[:, 1], k)
    dof_points = np.concatenate([mesh.vertices, edge_points.reshape(-1, 2)])

    along = np.arange(per_edge)
    groups = []
    for geom in mesh.cell_groups:
        loops = geom.vertex_ids
        # interior Lobatto points are symmetric, so a traversal from the
        # higher to the lower vertex just flips the index
        forward = loops < np.roll(loops, -1, axis=1)
        local = np.where(forward[..., None], along, per_edge - 1 - along)
        edge_dofs = nv + per_edge * geom.edge_ids[..., None] + local
        moments = cell_offset + nm * geom.index[:, None] + np.arange(nm)
        groups.append(np.concatenate([loops, edge_dofs.reshape(len(loops), -1), moments], axis=1))

    return GlobalDofMap(
        groups=groups,
        cell_slot=mesh.cell_slot,
        active=np.flatnonzero(~boundary_mask),
        boundary=np.flatnonzero(boundary_mask),
        dof_points=dof_points,
    )


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------


@dataclass
class GlobalSystem:
    mesh: PolyMesh
    k: int
    problem: object
    dofmap: GlobalDofMap
    groups: list[LocalElement]  # one element group per mesh cell group
    m1: sp.csr_matrix
    m2: sp.csr_matrix
    a: sp.csr_matrix
    b: sp.csr_matrix
    load_map: sp.csr_matrix  # size x n_quad
    quad_points: np.ndarray  # (n_quad, 2) quadrature points of every cell
    coefficient_notes: list[str]  # at most one, on negative sigma (see forms)

    @property
    def size(self) -> int:
        return self.dofmap.size

    @cached_property
    def elements(self) -> list[LocalElement]:
        """Per-cell views into the groups, in cell order."""
        return [self.groups[group][pos] for group, pos in self.mesh.cell_slot]


def _scatter_index(row_ids, col_ids):
    """Global (rows, cols) of per-group (G, R, C) blocks raveled in group
    order, from each group's (G, R) row ids and (G, C) column ids."""
    rows = [np.repeat(r, c.shape[1], axis=1).ravel() for r, c in zip(row_ids, col_ids)]
    cols = [np.tile(c, r.shape[1]).ravel() for r, c in zip(row_ids, col_ids)]
    return np.concatenate(rows), np.concatenate(cols)


def assemble(mesh: PolyMesh, k: int, problem) -> GlobalSystem:
    """Build elements, local forms and load blocks group by group and
    scatter them into global matrices."""
    dofmap = build_dof_map(mesh, k)

    groups = [build_element(geom, k) for geom in mesh.cell_groups]
    forms = [build_local_forms(group, problem) for group in groups]
    loads = [load_map_block(group) for group in groups]  # (G, N, nq)
    quad_points = np.concatenate([group.quad_points.reshape(-1, 2) for group in groups])
    shapes = [group.quad_points.shape[:2] for group in groups]
    point_ids = np.split(np.arange(len(quad_points)), np.cumsum([g * q for g, q in shapes])[:-1])
    point_ids = [ids.reshape(shape) for ids, shape in zip(point_ids, shapes)]

    def to_coo(blocks, index, n_cols):  # callers convert, so a one-off index is freed first
        values = np.concatenate([block.ravel() for block in blocks])
        return sp.coo_matrix((values, index), shape=(dofmap.size, n_cols))

    index = _scatter_index(dofmap.groups, dofmap.groups)
    matrices = {name: to_coo([getattr(lf, name) for lf in forms], index, dofmap.size).tocsr()
                for name in ("m1", "m2", "a", "b")}
    return GlobalSystem(
        mesh=mesh,
        k=k,
        problem=problem,
        dofmap=dofmap,
        groups=groups,
        **matrices,
        load_map=to_coo(loads, _scatter_index(dofmap.groups, point_ids), len(quad_points)).tocsr(),
        quad_points=quad_points,
        coefficient_notes=coefficient_notes([lf.sigma_low for lf in forms]),
    )


def dirichlet_values(system: GlobalSystem, times: np.ndarray) -> np.ndarray:
    """Dirichlet data at the boundary dofs (all geometric), (n, B) at a 1-D
    array of B times."""
    pts = system.dofmap.dof_points[system.dofmap.boundary]  # boundary dofs are never moments
    return sample(system.problem, "dirichlet", pts, times)


# ---------------------------------------------------------------------------
# linear solver contract
# ---------------------------------------------------------------------------


#: Refinement steps a solve may take before the contract counts as failed.
MAX_REFINE = 3

#: Relative residual ||b - A x|| / ||b|| every solve must meet.
RESIDUAL_TOL = 1e-12


class LinearSolver:
    """Sparse LU factorization with iterative refinement and a residual
    contract.

    Any input, dense or sparse, is factored once in double with SuperLU;
    ``solve`` may be called any number of times (the time loop reuses it for
    every step).  Columns are ordered by minimum degree on A + A^T, because
    the system matrices are structurally symmetric; that factor is up to 3x
    sparser than COLAMD's.  ``matrix`` is the input in extended precision,
    in which each pass of ``solve`` measures its residual: plain double
    refinement stalls at a relative residual of roughly n*eps, which for
    systems beyond ~10^4 unknowns sits above the 1e-12 contract.  The first
    pass certifies the double LU solution and returns that very vector when
    it passes; later passes add their corrections in extended precision,
    and the vector returned is that iterate rounded to double.
    """

    def __init__(self, matrix):
        self.matrix = sp.csr_matrix(matrix, dtype=np.longdouble)
        try:
            # structurally symmetric (B is skew): order A + A^T, not COLAMD's A^T A
            self._apply = splu(sp.csc_matrix(matrix, dtype=float), permc_spec="MMD_AT_PLUS_A").solve
        except RuntimeError as exc:  # splu reports exact singularity this way
            raise SolverError(f"factorization failed: {exc}") from exc

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        rhs = np.asarray(rhs, dtype=float)
        norm_b = np.linalg.norm(rhs)
        if norm_b == 0.0:
            return np.zeros_like(rhs)
        rhs_hp = rhs.astype(np.longdouble)
        x = self._apply(rhs)
        for refinement in range(MAX_REFINE + 1):
            if refinement:
                x = x + self._apply(res).astype(np.longdouble)
            res = np.asarray(rhs_hp - self.matrix @ x, dtype=float)
            res_norm = float(np.linalg.norm(res) / norm_b)
            if res_norm <= RESIDUAL_TOL:
                return np.asarray(x, dtype=float)
            if not math.isfinite(res_norm):
                raise SolverError("linear solve produced non-finite residual")
        raise SolverError(f"linear solve residual {res_norm:.3e} "
                          f"exceeds tolerance {RESIDUAL_TOL:.1e}")


# ---------------------------------------------------------------------------
# initial datum
# ---------------------------------------------------------------------------


def interpolate_global(system: GlobalSystem, fn) -> np.ndarray:
    """Global dof interpolation of a smooth function (shared dofs written
    identically by every incident cell)."""
    u = np.zeros(system.size)
    pts = system.dofmap.dof_points
    u[: len(pts)] = fn(pts[:, 0], pts[:, 1])
    nm = polynomial_dimension(system.k - 2)
    if nm:
        for group, gdofs in zip(system.groups, system.dofmap.groups):
            u[gdofs[:, -nm:]] = interpolate(group, fn)[:, -nm:]
    return u


def project_initial(system: GlobalSystem) -> np.ndarray:
    """Discrete elliptic projection of the initial datum.

    Solves m2_h(U0, v) = (mu grad u0, pi0-grad v) for interior dofs with the
    trace of u0 on boundary dofs.  Falls back to plain dof interpolation
    (with a logged notice) when the initial gradient is unavailable.
    """
    problem = system.problem
    if problem.grad_u0 is None:
        logger.info(
            "initial gradient not supplied; falling back to dof interpolation of u0"
        )
        return interpolate_global(system, lambda x, y: sample(problem, "u0", np.stack([x, y], -1)))

    dofmap = system.dofmap
    u = np.zeros(system.size)
    bdry = dofmap.boundary
    u[bdry] = sample(problem, "u0", dofmap.dof_points[bdry])

    rhs = np.zeros(system.size)
    for group, gdofs in zip(system.groups, dofmap.groups):
        np.add.at(rhs, gdofs, initial_projection_load(group, problem))

    act = dofmap.active
    b_act = rhs[act] - system.m2[np.ix_(act, bdry)] @ u[bdry]
    if np.any(b_act):  # a zero right-hand side leaves exactly zero active values
        u[act] = LinearSolver(system.m2[np.ix_(act, act)]).solve(b_act)
    return u


# ---------------------------------------------------------------------------
# time stepping
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TimeStepperConfig:
    """A step tau that divides the end time t_end, both finite and positive."""

    tau: float
    t_end: float

    def __post_init__(self):
        for name, value in (("tau", self.tau), ("t_end", self.t_end)):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
            if value <= 0:
                raise ValueError(f"{name} must be positive")
        ratio = self.t_end / self.tau
        n = round(ratio) if math.isfinite(ratio) else 0
        if n < 1 or abs(n * self.tau - self.t_end) > 1e-12 * max(1.0, self.t_end):
            raise ValueError(f"t_end/tau = {ratio!r} is not an integer step count")

    def num_steps(self) -> int:
        return round(self.t_end / self.tau)


@dataclass
class TimeResult:
    u: np.ndarray  # final dof vector
    t: float


#: Values of f (quadrature points x time steps) sampled at once; a block has at least one step.
BLOCK_VALUES = 2**17


def run_time_loop(system: GlobalSystem, config: TimeStepperConfig) -> TimeResult:
    """March the backward-Euler scheme from the projected initial datum to
    t_end, reusing one factorization for every step.  F(t_n) and the boundary
    lift come from one sample and one sparse product per block of B = max(1,
    ``BLOCK_VALUES`` // quadrature points) steps; a step only adds them and solves."""
    n_steps = config.num_steps()
    tau = config.tau
    act, bdry = system.dofmap.active, system.dofmap.boundary

    u = project_initial(system)

    g_mat = system.m1 + system.m2
    lhs_full = g_mat + tau * (system.a + system.b)
    solver = LinearSolver(lhs_full[np.ix_(act, act)])
    coupling = lhs_full[np.ix_(act, bdry)]
    g_act = g_mat[act]  # row slice: each row keeps its summation order
    load_act = system.load_map[act]
    xq = system.quad_points
    block = max(1, BLOCK_VALUES // len(xq))

    for first in range(1, n_steps + 1, block):
        times = np.arange(first, min(first + block, n_steps + 1)) * tau
        load = (tau * (load_act @ sample(system.problem, "f", xq, times))).T
        g_bdry = dirichlet_values(system, times)
        lift = (coupling @ g_bdry).T
        for j in range(len(times)):
            u[act] = solver.solve(g_act @ u + load[j] - lift[j])
            u[bdry] = g_bdry[:, j]

    return TimeResult(u=u, t=n_steps * tau)


# ---------------------------------------------------------------------------
# solution snapshots
# ---------------------------------------------------------------------------


def solution_to_string(system: GlobalSystem, result: TimeResult) -> str:
    """Text snapshot: dof vector plus per-cell L2-projection coefficients."""
    lines = ["solution 1", f"k {system.k}", f"time {float(result.t)!r}", f"dofs {system.size}"]
    lines.extend(f"{float(v)!r}" for v in result.u)
    lines.append(f"cells {system.mesh.num_cells}")
    for group, pos in system.mesh.cell_slot:
        dofs = system.dofmap.groups[group][pos]
        coeffs = system.groups[group].pi0_star[pos] @ result.u[dofs]
        lines.append(" ".join(f"{float(c)!r}" for c in coeffs))
    return "\n".join(lines) + "\n"


def write_solution(path, system: GlobalSystem, result: TimeResult) -> None:
    write_text(path, solution_to_string(system, result))


def solution_from_string(text: str):
    """Parse a snapshot; returns (k, t, dof vector, per-cell coefficient rows).
    A bad line raises a ``ValueError`` that names it; k must be a supported
    order, and each cell row holds dim P_k values."""
    reader = LineReader(text, "solution 1", ValueError)
    k = reader.field("k", int)
    if k not in SUPPORTED_ORDERS:
        raise reader.fail(1, f"order k={k} not supported; choose one of {SUPPORTED_ORDERS}")
    t = reader.field("time", float)
    u = reader.floats(reader.count("dofs", "dof"), 1).ravel()
    coeffs = reader.floats(reader.count("cells", "cell"), polynomial_dimension(k))
    reader.end()
    return k, t, u, list(coeffs)


def read_solution(path):
    return solution_from_string(read_text(path))

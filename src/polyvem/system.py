"""Global assembly, Dirichlet handling, initial projection and time stepping.

Global dofs are numbered vertices first, then (k-1) interior points per
edge (edges canonicalized lower vertex index first), then k(k-1)/2 moments
per cell.  Dirichlet data occupies boundary vertex and boundary edge dofs;
moments are always interior.

The fully discrete scheme is backward Euler:

    (M1 + M2 + tau (A + B)) U^n = (M1 + M2) U^{n-1} + tau F(t_n)

with boundary values moved to the right-hand side.  The system matrix is
time-independent and factorized once per run; every solve must meet a
relative-residual contract (default 1e-12), enforced with iterative
refinement.

F(t_n) is ``load_map @ f(quad_points, t_n)``: ``quad_points`` are the
points of each element's load rule, of degree 2k, which is exact for
(f, pi0 phi_i) whenever f is in P_k; the forms keep their rule of degree
2k+2 for the variable coefficients.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .forms import build_local_forms, check_coefficients, load_map_block
from .mesh import PolyMesh
from .projectors import (
    SUPPORTED_ORDERS,
    LocalElement,
    build_element,
    interpolate,
    polynomial_dimension,
)
from .quadrature import lobatto_interior_params

__all__ = [
    "SolverError",
    "GlobalDofMap",
    "GlobalSystem",
    "TimeStepperConfig",
    "TimeResult",
    "build_dof_map",
    "assemble",
    "dirichlet_values",
    "project_initial",
    "run_time_loop",
    "solve_linear",
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

    k: int
    num_vertices: int
    num_edges: int
    num_cells: int
    cell_dof_lists: list[np.ndarray]
    boundary_mask: np.ndarray
    dof_points: np.ndarray  # geometric dofs only (vertices + edge points)

    @property
    def size(self) -> int:
        return (
            self.num_vertices
            + (self.k - 1) * self.num_edges
            + polynomial_dimension(self.k - 2) * self.num_cells
        )

    @property
    def num_geometric(self) -> int:
        return self.num_vertices + (self.k - 1) * self.num_edges

    @property
    def active(self) -> np.ndarray:
        return np.nonzero(~self.boundary_mask)[0]

    @property
    def boundary(self) -> np.ndarray:
        return np.nonzero(self.boundary_mask)[0]

    def cell_dofs(self, ci: int) -> np.ndarray:
        return self.cell_dof_lists[ci]


def build_dof_map(mesh: PolyMesh, k: int) -> GlobalDofMap:
    nv, ne, nc = mesh.num_vertices, mesh.num_edges, mesh.num_cells
    per_edge = k - 1
    nm = polynomial_dimension(k - 2)
    edge_offset = nv
    cell_offset = nv + per_edge * ne

    size = cell_offset + nm * nc
    boundary_mask = np.zeros(size, dtype=bool)
    boundary_mask[:nv] = mesh.boundary_vertices
    for e in np.nonzero(mesh.boundary_edges)[0]:
        start = edge_offset + per_edge * e
        boundary_mask[start : start + per_edge] = True

    params = lobatto_interior_params(k)
    dof_points = np.zeros((cell_offset, 2))
    dof_points[:nv] = mesh.vertices
    for e in range(ne):
        a, b = mesh.vertices[mesh.edges[e, 0]], mesh.vertices[mesh.edges[e, 1]]
        for j, t in enumerate(params):
            dof_points[edge_offset + per_edge * e + j] = a + t * (b - a)

    cell_dof_lists = []
    for ci in range(nc):
        loop = mesh.cells[ci]
        m = len(loop)
        dofs = np.empty(m * k + nm, dtype=np.int64)
        dofs[:m] = loop
        if per_edge:
            edge_ids, forward = mesh.cell_edge_ids(ci)
            for pos in range(m):
                base = edge_offset + per_edge * edge_ids[pos]
                for j in range(per_edge):
                    # interior Lobatto points are symmetric, so a reversed
                    # traversal just flips the index
                    gj = j if forward[pos] else per_edge - 1 - j
                    dofs[m + pos * per_edge + j] = base + gj
        if nm:
            dofs[m * k :] = cell_offset + nm * ci + np.arange(nm)
        cell_dof_lists.append(dofs)

    return GlobalDofMap(
        k=k,
        num_vertices=nv,
        num_edges=ne,
        num_cells=nc,
        cell_dof_lists=cell_dof_lists,
        boundary_mask=boundary_mask,
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
    elements: list[LocalElement]
    m1: sp.csr_matrix
    m2: sp.csr_matrix
    a: sp.csr_matrix
    b: sp.csr_matrix
    load_map: sp.csr_matrix  # size x n_quad
    quad_points: np.ndarray  # (n_quad, 2) load-rule points of every cell
    coefficient_notes: list[str] = field(default_factory=list)

    @property
    def size(self) -> int:
        return self.dofmap.size

    def load_vector(self, t: float) -> np.ndarray:
        f_vals = np.asarray(
            self.problem.f(self.quad_points[:, 0], self.quad_points[:, 1], t), dtype=float
        )
        return self.load_map @ f_vals


def assemble(mesh: PolyMesh, k: int, problem, check: bool = True) -> GlobalSystem:
    """Build elements, local forms and scatter them into global matrices."""
    dofmap = build_dof_map(mesh, k)
    n = dofmap.size

    elements = []
    rows, cols = [], []
    vals = {name: [] for name in ("m1", "m2", "a", "b")}
    lrows, lcols, lvals = [], [], []
    quad_blocks = []
    offset = 0
    for ci in range(mesh.num_cells):
        el = build_element(mesh.cell_geometry(ci), k)
        elements.append(el)
        lf = build_local_forms(el, problem)
        gdofs = dofmap.cell_dofs(ci)
        grid_r, grid_c = np.meshgrid(gdofs, gdofs, indexing="ij")
        rows.append(grid_r.ravel())
        cols.append(grid_c.ravel())
        vals["m1"].append(lf.m1.ravel())
        vals["m2"].append(lf.m2.ravel())
        vals["a"].append(lf.a.ravel())
        vals["b"].append(lf.b.ravel())

        block = load_map_block(el)
        nq = block.shape[1]
        br, bc = np.meshgrid(gdofs, offset + np.arange(nq), indexing="ij")
        lrows.append(br.ravel())
        lcols.append(bc.ravel())
        lvals.append(block.ravel())
        quad_blocks.append(el.load_points)
        offset += nq

    rows = np.concatenate(rows)
    cols = np.concatenate(cols)

    def to_csr(name):
        return sp.coo_matrix(
            (np.concatenate(vals[name]), (rows, cols)), shape=(n, n)
        ).tocsr()

    quad_points = np.vstack(quad_blocks)
    load_map = sp.coo_matrix(
        (np.concatenate(lvals), (np.concatenate(lrows), np.concatenate(lcols))),
        shape=(n, offset),
    ).tocsr()

    notes = []
    if check:  # sample the coefficients where the forms evaluate them
        notes = check_coefficients(problem, np.vstack([el.quad_points for el in elements]))

    return GlobalSystem(
        mesh=mesh,
        k=k,
        problem=problem,
        dofmap=dofmap,
        elements=elements,
        m1=to_csr("m1"),
        m2=to_csr("m2"),
        a=to_csr("a"),
        b=to_csr("b"),
        load_map=load_map,
        quad_points=quad_points,
        coefficient_notes=notes,
    )


def dirichlet_values(system: GlobalSystem, t: float) -> np.ndarray:
    """Dirichlet data at the boundary dofs (all geometric) at time t."""
    bdry = system.dofmap.boundary
    pts = system.dofmap.dof_points[bdry]  # boundary dofs are never moments
    return np.asarray(system.problem.dirichlet(pts[:, 0], pts[:, 1], t), dtype=float)


# ---------------------------------------------------------------------------
# linear solver contract
# ---------------------------------------------------------------------------


def _as_operator(matrix):
    if sp.issparse(matrix):
        return matrix.tocsr()
    return np.asarray(matrix, dtype=float)


class LinearSolver:
    """Direct factorization with iterative refinement and a residual contract.

    The factorization is computed once; ``solve`` may be called any number
    of times (the time loop reuses it for every step).  Residuals inside the
    refinement loop are evaluated in extended precision: plain double
    refinement stalls at a relative residual of roughly n*eps, which for
    systems beyond ~10^4 unknowns sits above the 1e-12 contract.
    """

    def __init__(self, matrix, tol: float = 1e-12, max_refine: int = 3):
        self.matrix = _as_operator(matrix)
        self.tol = tol
        self.max_refine = max_refine
        self._matrix_hp = self.matrix.astype(np.longdouble)
        try:
            if sp.issparse(self.matrix):
                self._lu = splu(self.matrix.tocsc())
                self._apply = self._lu.solve
            else:
                import scipy.linalg as sla

                self._fac = sla.lu_factor(self.matrix)
                self._apply = lambda r: sla.lu_solve(self._fac, r)
        except RuntimeError as exc:  # splu reports exact singularity this way
            raise SolverError(f"factorization failed: {exc}") from exc

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        rhs = np.asarray(rhs, dtype=float)
        norm_b = np.linalg.norm(rhs)
        if norm_b == 0.0:
            return np.zeros_like(rhs)
        x = self._apply(rhs)
        if not np.all(np.isfinite(x)):
            raise SolverError("linear solve produced non-finite values (singular matrix?)")
        rhs_hp = rhs.astype(np.longdouble)
        x_hp = x.astype(np.longdouble)

        def residual_norm(vec_hp):
            res = np.asarray(rhs_hp - self._matrix_hp @ vec_hp, dtype=float)
            if not np.all(np.isfinite(res)):
                raise SolverError("linear solve produced non-finite residual")
            return res, float(np.linalg.norm(res) / norm_b)

        for _ in range(self.max_refine):
            res, res_norm = residual_norm(x_hp)
            if res_norm <= self.tol:
                return np.asarray(x_hp, dtype=float)
            x_hp = x_hp + self._apply(res).astype(np.longdouble)
        _, res_norm = residual_norm(x_hp)
        if res_norm > self.tol:
            raise SolverError(
                f"linear solve residual {res_norm:.3e} exceeds tolerance {self.tol:.1e}"
            )
        return np.asarray(x_hp, dtype=float)


def solve_linear(matrix, rhs, tol: float = 1e-12) -> np.ndarray:
    """One-shot solve honoring the relative-residual contract."""
    return LinearSolver(matrix, tol=tol).solve(rhs)


# ---------------------------------------------------------------------------
# initial datum
# ---------------------------------------------------------------------------


def interpolate_global(system: GlobalSystem, fn) -> np.ndarray:
    """Global dof interpolation of a smooth function (shared dofs written
    identically by every incident cell)."""
    u = np.zeros(system.size)
    geo = system.dofmap.num_geometric
    pts = system.dofmap.dof_points
    u[:geo] = fn(pts[:, 0], pts[:, 1])
    nm = polynomial_dimension(system.k - 2)
    if nm:
        for ci, el in enumerate(system.elements):
            local = interpolate(el, fn)
            gdofs = system.dofmap.cell_dofs(ci)
            u[gdofs[-nm:]] = local[-nm:]
    return u


def project_initial(system: GlobalSystem, tol: float = 1e-12) -> np.ndarray:
    """Discrete elliptic projection of the initial datum.

    Solves m2_h(U0, v) = (mu grad u0, pi0-grad v) for interior dofs with the
    trace of u0 on boundary dofs.  Falls back to plain dof interpolation
    (with a logged notice) when the initial gradient is unavailable.
    """
    problem = system.problem
    if getattr(problem, "grad_u0", None) is None:
        logger.info(
            "initial gradient not supplied; falling back to dof interpolation of u0"
        )
        return interpolate_global(system, problem.u0)

    dofmap = system.dofmap
    u = np.zeros(system.size)
    bdry = dofmap.boundary
    bpts = dofmap.dof_points[bdry]
    u[bdry] = problem.u0(bpts[:, 0], bpts[:, 1])

    rhs = np.zeros(system.size)
    for ci, el in enumerate(system.elements):
        pts, w = el.quad_points, el.quad_weights
        grad0 = np.asarray(problem.grad_u0(pts[:, 0], pts[:, 1]), dtype=float)
        mu = np.asarray(problem.mu(pts[:, 0], pts[:, 1]), dtype=float)
        flux = np.einsum("ncd,nd->nc", mu, grad0)
        nk1 = polynomial_dimension(el.k - 1)
        vk1 = el.monomial_values[:, :nk1]
        local = np.zeros(el.num_dofs)
        for d in range(2):
            local += el.pi0_grad_star[d].T @ (vk1.T @ (w * flux[:, d]))
        rhs[dofmap.cell_dofs(ci)] += local

    act = dofmap.active
    if len(act) == 0:
        return u
    m2 = system.m2
    b_act = rhs[act] - m2[np.ix_(act, bdry)] @ u[bdry]
    if not np.any(b_act) and not np.any(u[bdry]):
        return u  # zero datum stays exactly zero
    u[act] = solve_linear(m2[np.ix_(act, act)], b_act, tol=tol)
    return u


# ---------------------------------------------------------------------------
# time stepping
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TimeStepperConfig:
    tau: float
    t_end: float = 1.0
    tol: float = 1e-12
    debug_energy: bool = False

    def num_steps(self) -> int:
        if self.tau <= 0:
            raise ValueError("tau must be positive")
        n = round(self.t_end / self.tau)
        if n < 1 or abs(n * self.tau - self.t_end) > 1e-12 * max(1.0, self.t_end):
            raise ValueError(
                f"t_end/tau = {self.t_end / self.tau!r} is not an integer step count"
            )
        return n


@dataclass
class TimeResult:
    u: np.ndarray  # final dof vector
    t: float
    n_steps: int
    energies: np.ndarray | None = None


def run_time_loop(
    system: GlobalSystem, config: TimeStepperConfig, u0: np.ndarray | None = None
) -> TimeResult:
    """March the backward-Euler scheme from the projected initial datum to
    t_end, reusing one factorization for every step."""
    n_steps = config.num_steps()
    tau = config.tau
    dofmap = system.dofmap
    act, bdry = dofmap.active, dofmap.boundary

    u = project_initial(system, tol=config.tol) if u0 is None else u0.copy()

    g_mat = (system.m1 + system.m2).tocsr()
    h_mat = (system.a + system.b).tocsr()
    lhs_full = (g_mat + tau * h_mat).tocsr()
    solver = LinearSolver(lhs_full[np.ix_(act, act)], tol=config.tol)
    coupling = lhs_full[np.ix_(act, bdry)]
    g_act = g_mat[act]  # row slice: each row keeps its summation order
    load_act = system.load_map[act]
    xq = system.quad_points

    energies = []
    if config.debug_energy:
        energies.append(float(u @ (g_mat @ u)))

    for step in range(1, n_steps + 1):
        t_n = step * tau
        f_vals = np.asarray(system.problem.f(xq[:, 0], xq[:, 1], t_n), dtype=float)
        g_bdry = dirichlet_values(system, t_n)
        rhs = g_act @ u + tau * (load_act @ f_vals) - coupling @ g_bdry
        u_act = solver.solve(rhs)
        u = u.copy()
        u[act] = u_act
        u[bdry] = g_bdry
        if config.debug_energy:
            energy = float(u @ (g_mat @ u))
            if energies and energy > energies[-1] * (1.0 + 1e-10) + 1e-14:
                logger.warning(
                    "discrete energy increased at step %d: %.6e -> %.6e",
                    step,
                    energies[-1],
                    energy,
                )
            energies.append(energy)

    return TimeResult(
        u=u,
        t=n_steps * tau,
        n_steps=n_steps,
        energies=np.array(energies) if config.debug_energy else None,
    )


# ---------------------------------------------------------------------------
# solution snapshots
# ---------------------------------------------------------------------------


def solution_to_string(system: GlobalSystem, result: TimeResult) -> str:
    """Text snapshot: dof vector plus per-cell L2-projection coefficients."""
    lines = [
        "solution 1",
        f"k {system.k}",
        f"time {float(result.t)!r}",
        f"dofs {system.size}",
    ]
    lines.extend(f"{float(v)!r}" for v in result.u)
    lines.append(f"cells {system.mesh.num_cells}")
    for ci, el in enumerate(system.elements):
        coeffs = el.pi0_star @ result.u[system.dofmap.cell_dofs(ci)]
        lines.append(" ".join(f"{float(c)!r}" for c in coeffs))
    return "\n".join(lines) + "\n"


def write_solution(path, system: GlobalSystem, result: TimeResult) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(solution_to_string(system, result))


def solution_from_string(text: str):
    """Parse a snapshot; returns (k, t, dof vector, per-cell coefficient rows).

    Every malformed line raises a ``ValueError`` that names it: a bad or
    missing preamble field, dof value or cell count, a cell row whose
    length is not dim P_k, and too few or too many rows.
    """
    lines = text.splitlines()
    while lines and not lines[-1].strip():
        lines.pop()

    def err(lineno, msg):
        return ValueError(f"line {lineno + 1}: {msg}")

    def field(lineno, key, kind):
        if lineno >= len(lines):
            raise err(lineno, f"unexpected end of file, expected '{key} <value>'")
        parts = lines[lineno].split()
        if len(parts) != 2 or parts[0] != key:
            raise err(lineno, f"expected '{key} <value>'")
        try:
            return kind(parts[1])
        except ValueError:
            raise err(lineno, f"bad {key} value {parts[1]!r}") from None

    def values(lineno, count):
        tokens = lines[lineno].split()
        if len(tokens) != count:
            raise err(lineno, f"expected {count} value(s), found {len(tokens)}")
        try:
            return [float(v) for v in tokens]
        except ValueError:
            raise err(lineno, "bad number in value line") from None

    if not lines or lines[0].strip() != "solution 1":
        raise err(0, "expected header 'solution 1'")
    k = field(1, "k", int)
    if k not in SUPPORTED_ORDERS:
        raise err(1, f"order k={k} not supported; choose one of {SUPPORTED_ORDERS}")
    t = field(2, "time", float)
    n = field(3, "dofs", int)
    if n < 0:
        raise err(3, f"negative dof count {n}")
    pos = 4 + n
    if len(lines) <= pos:
        raise err(len(lines), "unexpected end of file in dof block")
    u = np.array([values(4 + i, 1)[0] for i in range(n)])
    nc = field(pos, "cells", int)
    if nc < 0:
        raise err(pos, f"negative cell count {nc}")
    if len(lines) < pos + 1 + nc:
        raise err(len(lines), f"unexpected end of file in cell block ({nc} rows expected)")
    if len(lines) > pos + 1 + nc:
        raise err(pos + 1 + nc, f"extra line after the {nc} cell rows")
    width = polynomial_dimension(k)
    coeffs = [np.array(values(pos + 1 + i, width)) for i in range(nc)]
    return k, t, u, coeffs


def read_solution(path):
    with open(path, "r", encoding="ascii") as fh:
        return solution_from_string(fh.read())

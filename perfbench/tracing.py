"""Spans and counters around polyvem's layer entry points, installed from outside.

The package itself carries no instrumentation.  A ``Tracer`` replaces the
names that polyvem's caller modules look up at call time (for example the
``build_element`` that ``polyvem.system`` imported) with timing wrappers,
and restores the originals afterwards.  Problem callables are wrapped by
``traced_problem`` through ``dataclasses.replace``.

Each call becomes a span (name, start, end, parent, pass id, thread).  Self
time is a span's duration minus the time of its child spans on the same
thread, so the self times of one serial pass add up to the pass's wall time.
Worker threads keep their own stacks; their outermost spans hang off the
pass's root span.

An entry point that no longer exists (renamed or folded away by a refactor)
is listed in ``Tracer.absent`` instead of raising.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import threading
import time
from contextlib import contextmanager

import numpy as np

#: (module, attribute, span name).  An attribute "Class.method" patches the
#: method on the class.  The same function imported into two modules is
#: listed once per module, because each caller looks up its own binding.
PHASE_POINTS = (
    ("polyvem.analysis", "generate_distorted_square_mesh", "mesh.generate"),
    ("polyvem.analysis", "generate_voronoi_mesh", "mesh.generate"),
    ("polyvem.analysis", "generate_concave_mesh", "mesh.generate"),
    ("polyvem.analysis", "assemble", "system.assemble"),
    ("polyvem.system", "assemble", "system.assemble"),
    ("polyvem.analysis", "run_time_loop", "system.timeloop"),
    ("polyvem.system", "run_time_loop", "system.timeloop"),
)

LAYER_POINTS = PHASE_POINTS + (
    ("polyvem.analysis", "refine_cells", "mesh.refine"),
    ("polyvem.analysis", "polygon_rule", "quadrature.polygon_rule"),
    ("polyvem.projectors", "polygon_rule", "quadrature.polygon_rule"),
    ("polyvem.system", "build_element", "projectors.build_element"),
    ("polyvem.system", "build_local_forms", "forms.build_local_forms"),
    ("polyvem.system", "load_map_block", "forms.load_map_block"),
    ("polyvem.system", "check_coefficients", "forms.check_coefficients"),
    ("polyvem.system", "build_dof_map", "system.build_dof_map"),
    ("polyvem.system", "project_initial", "system.project_initial"),
    ("polyvem.system", "dirichlet_values", "system.dirichlet"),
    ("polyvem.system", "LinearSolver.__init__", "system.solver_init"),
    ("polyvem.system", "splu", "system.factor"),
    ("polyvem.system", "LinearSolver.solve", "system.solve"),
    ("polyvem.system", "write_solution", "system.snapshot_write"),
    ("polyvem.system", "read_solution", "system.snapshot_read"),
    ("polyvem.analysis", "compute_errors", "analysis.compute_errors"),
    ("polyvem.analysis", "error_indicators", "analysis.error_indicators"),
    ("polyvem.analysis", "dorfler_marking", "analysis.dorfler"),
    ("polyvem.analysis", "_solve_level", "analysis.level"),
    ("polyvem.analysis", "run_convergence_sweep", "analysis.sweep"),
    ("polyvem.analysis", "run_adaptive_study", "analysis.adaptive_study"),
)

#: SobolevProblem fields grouped into one span name each.
PROBLEM_FIELDS = {
    "f": "problems.f",
    "mu": "problems.coeff",
    "eps": "problems.coeff",
    "beta": "problems.coeff",
    "div_beta": "problems.coeff",
    "gamma": "problems.coeff",
    "dirichlet": "problems.data",
    "u0": "problems.data",
    "grad_u0": "problems.data",
    "u_exact": "problems.exact",
    "grad_u_exact": "problems.exact",
}

ROOT = "bench.pass"
LU_SOLVE = "system.lu_solve"

#: Span names whose self-time metric is not simply ``<name>_s``.
SELF_METRIC = {
    ROOT: "bench.pass_self_s",
    "system.assemble": "system.assemble_self_s",
    "system.timeloop": "system.timeloop_self_s",
    "analysis.level": "analysis.level_self_s",
}

SPAN_NAMES = tuple(
    dict.fromkeys(
        [ROOT]
        + [name for _, _, name in LAYER_POINTS]
        + list(PROBLEM_FIELDS.values())
        + [LU_SOLVE]
    )
)

VERTEX_BUCKETS = (3, 4, 5, 6, 7)  # plus one bucket for 8 or more vertices

#: Per-layer metrics other than self times: name -> unit.
DERIVED_METRICS = {
    "mesh.refine_calls": "count",
    "mesh.cells": "count",
    **{f"mesh.cells_v{m}": "count" for m in VERTEX_BUCKETS},
    "mesh.cells_v8plus": "count",
    "mesh.hanging_node_cells": "count",
    "quadrature.points": "count",
    "quadrature.polygon_rule_calls": "count",
    "projectors.build_element_calls": "count",
    "projectors.build_element_us_per_cell": "us",
    "problems.f_calls": "count",
    "problems.f_points": "count",
    "system.steps": "count",
    "system.dofs": "count",
    "system.active_dofs": "count",
    "system.nnz_lhs": "count",
    "system.nnz_load_map": "count",
    "system.factorizations": "count",
    "system.lu_nnz": "count",
    "system.solve_calls": "count",
    "system.lu_solves": "count",
    "system.lu_solves_per_solve": "1",
    "analysis.levels": "count",
    "analysis.level_s.max": "s",
    "analysis.level_s.sum": "s",
    "analysis.parallel_efficiency": "1",
    "trace.wall_s": "s",
    "trace.self_sum_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
    "trace.absent_entry_points": "count",
}


def self_metric(span_name: str) -> str:
    return SELF_METRIC.get(span_name, f"{span_name}_s")


def layer_metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {self_metric(name): "s" for name in SPAN_NAMES}
    units.update(DERIVED_METRICS)
    return units


class _Frame:
    __slots__ = ("sid", "name", "start", "child")

    def __init__(self, sid, name, start):
        self.sid = sid
        self.name = name
        self.start = start
        self.child = 0.0


class _TracedLU:
    """SuperLU stand-in whose ``solve`` is a span; other attributes pass through."""

    def __init__(self, lu, tracer):
        self._lu = lu
        self.solve = tracer.wrap(LU_SOLVE, lu.solve)

    def __getattr__(self, name):
        return getattr(self._lu, name)


class Tracer:
    """Collects spans and per-pass aggregates.

    With ``layers`` false only the phase entry points (mesh generation,
    assembly, time loop) are wrapped: a handful of calls per pass, which is
    what the untraced end-to-end runs use to split a pass into set-up and
    time loop.  With ``layers`` true every layer entry point is wrapped.
    """

    def __init__(self, layers: bool):
        self.layers = layers
        self.points = LAYER_POINTS if layers else PHASE_POINTS
        self.spans: list[tuple] = []  # (id, name, start, end, parent, pass, thread)
        self.absent: list[str] = []
        self._originals: list[tuple] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0
        self._pass_id = -1
        self._root_sid = None
        self._reset_pass()

    def _reset_pass(self):
        self.self_s: dict[str, float] = {}
        self.incl_s: dict[str, list[float]] = {}
        self.calls: dict[str, int] = {}
        self.systems: list = []
        self.f_points = 0
        self.nnz_lhs = 0
        self.lu_nnz = 0

    # -- spans -------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self, name: str) -> _Frame:
        with self._lock:
            sid = self._next_id
            self._next_id += 1
        frame = _Frame(sid, name, time.perf_counter())
        self._stack().append(frame)
        return frame

    def _exit(self, frame: _Frame) -> None:
        end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        duration = end - frame.start
        if stack:
            stack[-1].child += duration
            parent = stack[-1].sid
        else:
            parent = None if frame.sid == self._root_sid else self._root_sid
        with self._lock:
            name = frame.name
            self.self_s[name] = self.self_s.get(name, 0.0) + duration - frame.child
            self.incl_s.setdefault(name, []).append(duration)
            self.calls[name] = self.calls.get(name, 0) + 1
            self.spans.append(
                (frame.sid, name, frame.start, end, parent, self._pass_id,
                 threading.get_ident())
            )

    def wrap(self, name: str, fn, after=None):
        """``fn`` timed as span ``name``; ``after(args, result)`` runs outside it."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(frame)
            if after is not None:
                after(args, result)
            return result

        return traced

    @contextmanager
    def run_pass(self):
        """One workload pass under a root span; aggregates restart per pass."""
        self._reset_pass()
        self._pass_id += 1
        frame = self._enter(ROOT)
        self._root_sid = frame.sid
        try:
            yield
        finally:
            self._exit(frame)
            self._root_sid = None

    def pass_wall(self) -> float:
        return self.incl_s[ROOT][0]

    def phase_seconds(self, name: str) -> float:
        """Inclusive seconds of span ``name`` summed over the pass (0 if absent)."""
        return float(sum(self.incl_s.get(name, ())))

    # -- installation --------------------------------------------------------

    def _after(self, name):
        if name == "system.assemble" and self.layers:
            return lambda args, system: self.systems.append(system)
        if name == "system.solver_init":
            return lambda args, _: self._add("nnz_lhs", _nnz(getattr(args[0], "matrix", None)))
        return None

    def _add(self, attr: str, value: int) -> None:
        with self._lock:
            setattr(self, attr, getattr(self, attr) + int(value))

    def _wrap_factor(self, splu):
        traced = self.wrap("system.factor", splu)

        @functools.wraps(splu)
        def factor(*args, **kwargs):
            lu = traced(*args, **kwargs)
            self._add("lu_nnz", _nnz(lu))
            return _TracedLU(lu, self)

        return factor

    @contextmanager
    def installed(self):
        """Patch every entry point in ``points``; restore them on exit."""
        wrapped = {}  # one wrapper per original, shared by every binding
        try:
            for module_name, attr, name in self.points:
                module = importlib.import_module(module_name)
                owner_name, _, leaf = attr.rpartition(".")
                owner = getattr(module, owner_name, None) if owner_name else module
                original = getattr(owner, leaf, None) if owner is not None else None
                if original is None:
                    self.absent.append(f"{module_name}.{attr}")
                    continue
                if id(original) not in wrapped:
                    if name == "system.factor":
                        wrapped[id(original)] = self._wrap_factor(original)
                    else:
                        wrapped[id(original)] = self.wrap(name, original, self._after(name))
                self._originals.append((owner, leaf, original))
                setattr(owner, leaf, wrapped[id(original)])
            yield self
        finally:
            while self._originals:
                owner, leaf, original = self._originals.pop()
                setattr(owner, leaf, original)

    def traced_problem(self, problem):
        """Copy of ``problem`` whose callables are spans (``f`` also counts points)."""
        fields = {f.name for f in dataclasses.fields(problem)}
        changes = {}
        for attr, name in PROBLEM_FIELDS.items():
            if attr not in fields:
                self.absent.append(f"SobolevProblem.{attr}")
                continue
            fn = getattr(problem, attr)
            if fn is None:
                continue
            after = None
            if attr == "f":
                after = lambda args, _: self._add("f_points", np.size(args[0]))  # noqa: E731
            changes[attr] = self.wrap(name, fn, after)
        return dataclasses.replace(problem, **changes)

    # -- per-layer metrics -------------------------------------------------------

    def layer_metrics(self, workers: int = 1) -> dict[str, float]:
        """Per-layer values of the pass just finished (see ``layer_metric_units``).

        Releases the systems the pass assembled, so they do not outlive it.
        """
        wall = self.pass_wall()
        systems, self.systems = self.systems, []
        out = {self_metric(name): self.self_s.get(name, 0.0) for name in SPAN_NAMES}
        calls = self.calls.get
        out.update(_mesh_counts([s.mesh for s in systems]))
        n_cells = out["mesh.cells"]
        element_incl = self.phase_seconds("projectors.build_element")
        levels = self.incl_s.get("analysis.level", [])
        solves = calls("system.solve", 0)
        out.update(
            {
                "mesh.refine_calls": calls("mesh.refine", 0),
                "quadrature.points": sum(len(s.quad_points) for s in systems),
                "quadrature.polygon_rule_calls": calls("quadrature.polygon_rule", 0),
                "projectors.build_element_calls": calls("projectors.build_element", 0),
                "projectors.build_element_us_per_cell": (
                    1e6 * element_incl / n_cells if n_cells else 0.0
                ),
                "problems.f_calls": calls("problems.f", 0),
                "problems.f_points": self.f_points,
                "system.steps": calls("system.dirichlet", 0),
                "system.dofs": sum(s.size for s in systems),
                "system.active_dofs": sum(len(s.dofmap.active) for s in systems),
                "system.nnz_lhs": self.nnz_lhs,
                "system.nnz_load_map": sum(s.load_map.nnz for s in systems),
                "system.factorizations": calls("system.factor", 0),
                "system.lu_nnz": self.lu_nnz,
                "system.solve_calls": solves,
                "system.lu_solves": calls(LU_SOLVE, 0),
                "system.lu_solves_per_solve": calls(LU_SOLVE, 0) / solves if solves else 0.0,
                "analysis.levels": len(levels),
                "analysis.level_s.max": max(levels, default=0.0),
                "analysis.level_s.sum": float(sum(levels)),
                "analysis.parallel_efficiency": (
                    sum(levels) / (workers * self.phase_seconds("analysis.sweep"))
                    if levels
                    else 0.0
                ),
                "trace.wall_s": wall,
                "trace.self_sum_s": float(sum(self.self_s.values())),
                "trace.spans": sum(self.calls.values()),
                "trace.absent_entry_points": len(set(self.absent)),
            }
        )
        return out


def _nnz(matrix) -> int:
    return getattr(matrix, "nnz", 0)


def _mesh_counts(meshes) -> dict[str, int]:
    """Cells by vertex count and cells with a hanging (straight-angle) vertex."""
    sizes = []
    hanging = 0
    for mesh in meshes:
        for loop in mesh.cells:
            coords = mesh.vertices[loop]
            sizes.append(len(loop))
            into = coords - np.roll(coords, 1, axis=0)
            out = np.roll(coords, -1, axis=0) - coords
            cross = into[:, 0] * out[:, 1] - into[:, 1] * out[:, 0]
            scale = np.linalg.norm(into, axis=1) * np.linalg.norm(out, axis=1)
            hanging += bool(np.any(np.abs(cross) <= 1e-10 * scale))
    sizes = np.asarray(sizes, dtype=int)
    counts = {"mesh.cells": int(sizes.size), "mesh.hanging_node_cells": hanging}
    for m in VERTEX_BUCKETS:
        counts[f"mesh.cells_v{m}"] = int(np.sum(sizes == m))
    counts["mesh.cells_v8plus"] = int(np.sum(sizes >= 8))
    return counts


def hanging_node_cells(mesh) -> int:
    return _mesh_counts([mesh])["mesh.hanging_node_cells"]

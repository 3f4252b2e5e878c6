"""The two benchmark workloads and the correctness gate run after every pass.

Each workload pass runs two parts back to back through polyvem's public API;
the next pass starts only when the previous one has finished.  Calls go
through module attributes (``analysis.compute_errors(...)``, not a name
imported here), so that the wrappers a ``Tracer`` installs see them.

* ``solve``  = ``assembly`` then ``timeloop``: the single-solve path on one
  thread.  Set-up time comes mostly from ``assembly``, time-loop time mostly
  from ``timeloop``, so a change that trades one against the other shows in
  ``setup_s`` against ``timeloop_s``.
* ``study``  = ``adaptive`` then ``sweep``: the two analysis studies, many
  small systems and then a level ladder on two workers.

Two workloads rather than four, because on a shared host whose speed drifts
over tens of seconds only longer runs keep the run-to-run spread inside the
bounds, and the time budget of a benchmark round fixes runs times workloads.

Why these parts (each stresses a different layer):

* ``timeloop``  variable problem, distorted level 2 (400 quads), k=2,
  tau=1e-3 to t=1: the per-step source evaluation at 25,600 quadrature
  points, the load matvec and the extended-precision residual dominate;
  assembly is a minor share.  Also writes and reads a solution snapshot.
* ``assembly``  variable problem, Voronoi level 4 (480 Lloyd cells, mostly
  hexagons), k=3, ten steps of tau=1e-2: mesh generation, element
  construction and local forms are most of the pass.
* ``adaptive``  gaussian problem, k=1, the adaptive-versus-uniform study of
  acceptance criterion 9: many small assemblies and 1000-step loops on
  systems of at most a few hundred unknowns, so fixed per-call cost, not
  flops, sets the time.  Ignores the seed (the study's meshes are fixed).
* ``sweep``  the paper's EOC workflow on the concave family, k=2, four
  levels to t=0.25, two level-parallel workers: the largest level sets the
  time.  Ignores the seed (the concave family is deterministic), so
  ``study`` as a whole does.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from polyvem import analysis, system
from polyvem.system import TimeStepperConfig

from tracing import hanging_node_cells

#: Acceptance bands of the convergence criteria: E0h slope in k + E0_BAND,
#: E1h slope in k + E1_BAND.
E0_BAND = (0.75, 1.25)
E1_BAND = (-0.25, 0.25)
#: Adaptive must be at least as accurate as uniform at matched active dofs,
#: up to floating-point noise (acceptance criterion 9).
ADAPTIVE_SLACK = 1.0 + 1e-9
#: Short mode (smoke checks): end time and sweep depth.
SHORT_T_END = 0.05
SHORT_LEVELS = 3


class GateError(Exception):
    """A pass produced a result that fails the correctness gate."""


@dataclass
class Context:
    """What a pass needs besides the workload: the (possibly traced) problems
    by name, the mesh seed, the mode and a scratch directory inside the
    checkout."""

    problems: dict
    seed: int
    short: bool
    scratch: str


@dataclass
class Outcome:
    pairs: list  # ErrorPair of every solve of the pass, in solve order
    final: object  # ErrorPair whose E0h/E1h the benchmark reports
    checks: dict = field(default_factory=dict)  # workload-specific gate inputs

    def fingerprint(self) -> tuple:
        """Values that must repeat bitwise across passes of one seed."""
        return tuple((p.h, p.e0, p.e1, p.num_dofs, p.num_active) for p in self.pairs)


class Workload:
    name = ""
    problem = ""
    k = 0
    workers = 1  # POLYVEM_THREADS for the pass
    full_t_end = 1.0  # end time outside short mode
    #: Ceilings on the reported E0h/E1h, about 1.5x the largest values
    #: measured on seeds 0-9 at full length.  Short mode stops earlier, where
    #: errors are smaller, so the same ceilings apply (sweep: see there).
    ceiling = (0.0, 0.0)

    def t_end(self, ctx: Context) -> float:
        return SHORT_T_END if ctx.short else self.full_t_end

    def run(self, ctx: Context) -> Outcome:
        raise NotImplementedError

    def check(self, outcome: Outcome, ctx: Context) -> None:
        for pair in outcome.pairs:
            if not (math.isfinite(pair.e0) and math.isfinite(pair.e1)):
                raise GateError(f"non-finite errors {pair.e0!r}, {pair.e1!r}")
        e0, e1 = outcome.final.e0, outcome.final.e1
        if e0 > self.ceiling[0] or e1 > self.ceiling[1]:
            raise GateError(
                f"E0h {e0:.4e} / E1h {e1:.4e} above ceiling "
                f"{self.ceiling[0]:.1e} / {self.ceiling[1]:.1e}"
            )


class SingleSolve(Workload):
    """Mesh, assemble, time loop to t_end, errors: one solve per pass."""

    family = ""
    level = 0
    tau = 0.0
    snapshot = False

    def run(self, ctx: Context) -> Outcome:
        mesh = analysis.family_mesh(self.family, self.level, seed=ctx.seed)
        sys_ = system.assemble(mesh, self.k, ctx.problems[self.problem])
        config = TimeStepperConfig(tau=self.tau, t_end=self.t_end(ctx))
        result = system.run_time_loop(sys_, config)
        pair = analysis.compute_errors(sys_, result.u, result.t)
        checks = {"u": result.u}
        if self.snapshot:
            path = os.path.join(ctx.scratch, f"{self.name}.sol")
            system.write_solution(path, sys_, result)
            checks["snapshot"] = (sys_, result, system.read_solution(path))
        return Outcome([pair], pair, checks)

    def check(self, outcome: Outcome, ctx: Context) -> None:
        super().check(outcome, ctx)
        if not np.all(np.isfinite(outcome.checks["u"])):
            raise GateError("solution has non-finite entries")
        if "snapshot" in outcome.checks:
            _check_snapshot(*outcome.checks["snapshot"])


def _check_snapshot(sys_, result, back) -> None:
    """The snapshot read back must equal what was written, bit for bit."""
    k, t, u, rows = back
    if k != sys_.k or t != result.t:
        raise GateError(f"snapshot header (k={k}, t={t!r}) does not round-trip")
    if u.shape != result.u.shape or not np.array_equal(u, result.u):
        raise GateError("snapshot dof vector does not round-trip bitwise")
    if len(rows) != len(sys_.elements):
        raise GateError(f"snapshot has {len(rows)} coefficient rows, expected {len(sys_.elements)}")
    for ci, el in enumerate(sys_.elements):
        expected = el.pi0_star @ result.u[sys_.dofmap.cell_dofs(ci)]
        if not np.array_equal(rows[ci], expected):
            raise GateError(f"snapshot coefficients of cell {ci} do not round-trip bitwise")


class Timeloop(SingleSolve):
    name = "timeloop"
    problem = "variable"
    family, level, k = "distorted", 2, 2
    tau, full_t_end = 1e-3, 1.0
    snapshot = True
    ceiling = (7.1e-5, 9.4e-3)  # measured max 4.75e-5 / 6.25e-3


class Assembly(SingleSolve):
    name = "assembly"
    problem = "variable"
    family, level, k = "voronoi", 4, 3
    tau, full_t_end = 1e-2, 0.1
    ceiling = (5.4e-8, 1.15e-5)  # measured max 3.59e-8 / 7.65e-6


class Adaptive(Workload):
    name = "adaptive"
    problem = "gaussian"
    k = 1
    ceiling = (2.3e-2, 1.0)  # measured 1.53e-2 / 0.644

    def run(self, ctx: Context) -> Outcome:
        study = analysis.run_adaptive_study(
            ctx.problems[self.problem], k=self.k, cycles=5, start_n=8, theta=0.3, tau=1e-3,
            t_end=self.t_end(ctx),
        )
        pairs = study.adaptive.pairs + study.uniform.pairs
        return Outcome(pairs, study.adaptive.pairs[-1], {"study": study})

    def check(self, outcome: Outcome, ctx: Context) -> None:
        super().check(outcome, ctx)
        study = outcome.checks["study"]
        matched = analysis.matched_dof_comparison(study)
        if len(matched) < 3:
            raise GateError(f"only {len(matched)} matched active-dof points")
        for dofs, e_adapt, e_unif in matched:
            if e_adapt > e_unif * ADAPTIVE_SLACK:
                raise GateError(
                    f"adaptive E0h {e_adapt:.4e} above uniform {e_unif:.4e} at {dofs} dofs"
                )
        if hanging_node_cells(study.final_mesh) == 0:
            raise GateError("final adaptive mesh has no hanging nodes")


class Sweep(Workload):
    name = "sweep"
    problem = "variable"
    k = 2
    workers = 2
    full_t_end = 0.25
    # measured 8.78e-6 / 1.23e-3; short mode (finest level 2) 1.40e-5 / 9.84e-4
    ceiling = (2.1e-5, 1.85e-3)

    def run(self, ctx: Context) -> Outcome:
        record = analysis.run_convergence_sweep(
            ctx.problems[self.problem], "concave", k=self.k,
            levels=SHORT_LEVELS if ctx.short else 4,
            tau=1e-3, t_end=self.t_end(ctx), seed=ctx.seed,
        )
        return Outcome(record.pairs, record.pairs[-1], {"record": record})

    def check(self, outcome: Outcome, ctx: Context) -> None:
        super().check(outcome, ctx)
        record = outcome.checks["record"]
        for label, errors, band in (("E0h", record.e0, E0_BAND), ("E1h", record.e1, E1_BAND)):
            slope = analysis.least_squares_slope(record.h, errors)
            lo, hi = self.k + band[0], self.k + band[1]
            if not lo <= slope <= hi:
                raise GateError(f"{label} slope {slope:.4f} outside [{lo}, {hi}]")


class Composite:
    """A workload whose pass runs its parts in order; each part keeps its gate."""

    def __init__(self, name: str, parts: tuple):
        self.name = name
        self.parts = parts
        self.workers = max(part.workers for part in parts)

    def run(self, ctx: Context) -> Outcome:
        outcomes = [part.run(ctx) for part in self.parts]
        pairs = [pair for outcome in outcomes for pair in outcome.pairs]
        return Outcome(pairs, outcomes[-1].final, {"parts": outcomes})

    def check(self, outcome: Outcome, ctx: Context) -> None:
        for part, sub in zip(self.parts, outcome.checks["parts"]):
            part.check(sub, ctx)


WORKLOADS = {
    w.name: w
    for w in (
        Composite("solve", (Assembly(), Timeloop())),
        Composite("study", (Adaptive(), Sweep())),
    )
}

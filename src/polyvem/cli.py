"""Command-line interface: mesh generation, single solves, convergence
sweeps, and the adaptive-versus-uniform comparison.

Subcommands
-----------
mesh      generate a mesh file and print its quality report
solve     run one (mesh, order) solve to T and print `h E0h E1h`
converge  run a refinement ladder per order; emit CSV tables and an SVG plot
adaptive  compare uniform and indicator-driven refinement; emit CSV, SVG,
          and the final adaptively refined mesh

Problems are selected by any name ``problems.get_problem`` knows (a catalog
name or the paper's example numbers 1, 2, 3: variable-coefficient sine,
convection-dominated, Gaussian bump), or by a Python file that defines a
module-level ``PROBLEM``.  Convergence levels of a sweep are independent;
set POLYVEM_THREADS to solve them in parallel.
"""

from __future__ import annotations

import argparse
import logging
import runpy
import sys
import traceback
from pathlib import Path

from .analysis import (
    DISTORTION,
    LLOYD_STEPS,
    MESH_FAMILIES,
    MESH_GENERATORS,
    compute_errors,
    record_to_csv,
    run_adaptive_study,
    run_convergence_sweep,
)
from .mesh import compute_quality, read_mesh, write_mesh
from .problems import PROBLEM_NAMES, SobolevProblem, get_problem
from .projectors import SUPPORTED_ORDERS
from .svgplot import Curve, loglog_svg
from .system import TimeStepperConfig, assemble, run_time_loop, write_solution


def _resolve_problem(spec: str) -> SobolevProblem:
    path = Path(spec)
    if path.suffix == ".py":
        if not path.is_file():
            raise ValueError(f"problem file {spec} does not exist")
        try:
            namespace = runpy.run_path(spec)
        except Exception as exc:  # name the file's line that raised; a SyntaxError has its own
            at = [f.lineno for f in traceback.extract_tb(exc.__traceback__) if f.filename == spec]
            line = at[-1] if at else getattr(exc, "lineno", "?")
            raise ValueError(f"{spec}: line {line}: {type(exc).__name__}: {exc}") from exc
        problem = namespace.get("PROBLEM")
        if not isinstance(problem, SobolevProblem):
            raise ValueError(f"{spec}: file must define PROBLEM as a SobolevProblem")
        name = str(problem.name)  # starts every output file name: one path component
        if name in ("", ".", "..") or any(c in name for c in "/\\\0"):
            raise ValueError(f"{spec}: PROBLEM.name {name!r} cannot name a file")
        return problem
    try:
        return get_problem(spec)
    except KeyError:
        raise ValueError(
            f"unknown problem {spec!r}; expected 1|2|3, one of {sorted(PROBLEM_NAMES)}, "
            "or a .py file defining PROBLEM"
        ) from None


def _build_mesh(args):
    size = args.seeds if args.family == "voronoi" else args.n
    return MESH_GENERATORS[args.family](size, args.distortion, args.lloyd, args.seed)


def _plot(path: Path, series, **labels) -> None:
    """Write the log-log SVG of the (label, x, y, dashed) series that a log
    axis can show, all values positive and finite; name the others in one
    warning line, and write no file if none is left."""
    curves, skipped = [], []
    for label, x, y, dashed in series:
        try:
            curves.append(Curve(label, tuple(x), tuple(y), dashed=dashed))
        except ValueError:  # Curve refuses what a log axis cannot show
            skipped.append(label)
    if skipped:
        print(f"warning: errors not positive, not plotted: {', '.join(skipped)}", file=sys.stderr)
    if curves:
        path.write_text(loglog_svg(curves, **labels), encoding="utf-8")
        print(f"wrote {path}")


def _add_mesh_flags(parser):
    parser.add_argument("--n", type=int, default=8, help="grid resolution (distorted/concave)")
    parser.add_argument("--distortion", type=float, default=DISTORTION, help="distortion amplitude")
    parser.add_argument("--seeds", type=int, default=64, help="seed count (voronoi)")
    parser.add_argument("--lloyd", type=int, default=LLOYD_STEPS, help="Lloyd iterations (voronoi)")
    parser.add_argument("--seed", type=int, default=0, help="random seed")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_mesh(args) -> int:
    mesh = _build_mesh(args)
    out = Path(args.output or f"{args.family}.mesh")
    write_mesh(out, mesh)
    print(f"wrote {out}")
    print(compute_quality(mesh))
    return 0


def cmd_solve(args) -> int:
    problem = _resolve_problem(args.problem)
    config = TimeStepperConfig(tau=args.tau, t_end=args.t_end)
    mesh = read_mesh(args.mesh) if args.mesh else _build_mesh(args)
    system = assemble(mesh, args.k, problem)
    result = run_time_loop(system, config)
    if problem.u_exact is not None and problem.grad_u_exact is not None:
        pair = compute_errors(system, result.u, result.t)
        print(f"h {pair.h:.6e} E0h {pair.e0:.6e} E1h {pair.e1:.6e}")
    else:
        print(f"h {mesh.h:.6e} (no exact solution; errors not computed)")
    out = Path(args.output or f"{problem.name}-k{args.k}.sol")
    write_solution(out, system, result)
    print(f"wrote {out}")
    return 0


def cmd_converge(args) -> int:
    problem = _resolve_problem(args.problem)
    outdir = Path(args.outdir)
    stem = f"{problem.name}-{args.family}"

    if args.levels == 1:
        print(
            "warning: a single level yields no EOC and no plot",
            file=sys.stderr,
        )

    series = []
    for k in dict.fromkeys(args.k):  # each order once, in first-seen order
        record = run_convergence_sweep(
            problem, args.family, k, levels=args.levels, tau=args.tau,
            t_end=args.t_end, seed=args.seed,
        )
        csv_path = outdir / f"{stem}-k{k}.csv"
        outdir.mkdir(parents=True, exist_ok=True)  # a refused run leaves no directory
        csv_path.write_text(record_to_csv(record), encoding="utf-8")
        print(f"wrote {csv_path}")
        if args.plot and args.levels >= 2:
            series += [(f"E0h k={k}", record.h, record.e0, False),
                       (f"E1h k={k}", record.h, record.e1, True)]

    guides = tuple(sorted({*args.k, *(k + 1 for k in args.k)}))
    _plot(outdir / f"{stem}.svg", series, title=f"{problem.name} on {args.family} meshes",
          xlabel="h", ylabel="error", slope_guides=guides)
    return 0


def cmd_adaptive(args) -> int:
    problem = _resolve_problem(args.problem)
    study = run_adaptive_study(
        problem, k=args.k, cycles=args.levels, start_n=args.start_n,
        theta=args.theta, tau=args.tau, t_end=args.t_end,
    )
    stem = f"{problem.name}-adaptive-k{args.k}"
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)  # a refused run leaves no directory

    csv_path = outdir / f"{stem}.csv"
    lines = ["strategy,level,h,dofs,active_dofs,E0h,seconds"]
    for record in (study.uniform, study.adaptive):
        for i, pair in enumerate(record.pairs):
            lines.append(
                f"{record.family},{i},{pair.h:.6e},{pair.num_dofs},"
                f"{pair.num_active},{pair.e0:.6e},{pair.seconds:.3f}"
            )
    csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {csv_path}")

    _plot(outdir / f"{stem}.svg",
          [(r.family, r.active_dofs, r.e0, False) for r in (study.uniform, study.adaptive)],
          title=f"{problem.name}: E0h vs active dofs", xlabel="active dofs", ylabel="E0h",
          slope_guides=())

    mesh_path = outdir / f"{stem}-final.mesh"
    write_mesh(mesh_path, study.final_mesh)
    print(f"wrote {mesh_path}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polyvem",
        description="Virtual element solver for a Sobolev equation on polygonal meshes.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_mesh = sub.add_parser("mesh", help="generate a mesh file")
    p_mesh.add_argument("family", choices=MESH_FAMILIES)
    _add_mesh_flags(p_mesh)
    p_mesh.add_argument("-o", "--output", help="output mesh file")
    p_mesh.set_defaults(func=cmd_mesh)

    p_solve = sub.add_parser("solve", help="run one solve and report errors")
    p_solve.add_argument("--problem", default="1", help="1|2|3, catalog name, or .py file")
    p_solve.add_argument("--family", choices=MESH_FAMILIES, default="distorted", help="mesh family")
    _add_mesh_flags(p_solve)
    p_solve.add_argument("--mesh", help="mesh file (overrides family flags)")
    p_solve.add_argument("--k", type=int, default=1, choices=SUPPORTED_ORDERS, help="order")
    p_solve.add_argument("-o", "--output", help="output solution file")
    p_solve.set_defaults(func=cmd_solve)

    p_conv = sub.add_parser("converge", help="run a convergence sweep")
    p_conv.add_argument("--problem", default="1", help="1|2|3, catalog name, or .py file")
    p_conv.add_argument("--family", choices=MESH_FAMILIES, default="voronoi", help="mesh family")
    p_conv.add_argument("--k", type=int, nargs="+", choices=SUPPORTED_ORDERS,
                        default=SUPPORTED_ORDERS, help="orders")
    p_conv.add_argument("--levels", type=int, default=4, help="refinement levels")
    p_conv.add_argument("--seed", type=int, default=0, help="random seed of level 0")
    p_conv.add_argument("--no-plot", dest="plot", action="store_false")
    p_conv.set_defaults(func=cmd_converge)

    p_adapt = sub.add_parser("adaptive", help="uniform vs adaptive refinement study")
    p_adapt.add_argument("--problem", default="3", help="1|2|3, catalog name, or .py file")
    p_adapt.add_argument("--k", type=int, default=1, choices=SUPPORTED_ORDERS, help="order")
    p_adapt.add_argument("--levels", type=int, default=4, help="refinement cycles")
    p_adapt.add_argument("--start-n", type=int, default=8, help="grid resolution of the first mesh")
    p_adapt.add_argument("--theta", type=float, default=0.3, help="Doerfler marking fraction")
    p_adapt.set_defaults(func=cmd_adaptive)

    for p_run in (p_solve, p_conv, p_adapt):
        p_run.add_argument("--tau", type=float, default=1e-3, help="time step")
        p_run.add_argument("--t-end", type=float, default=1.0, help="end time T")
    for p_run in (p_conv, p_adapt):
        p_run.add_argument("--outdir", default="results", help="output directory")
    for p_any in (p_mesh, p_solve, p_conv, p_adapt):  # each option's help shows its default
        p_any.formatter_class = argparse.ArgumentDefaultsHelpFormatter

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    notes = logging.StreamHandler(sys.stderr)  # the library's notes, one line each
    notes.setLevel(logging.WARNING)
    notes.setFormatter(logging.Formatter("warning: %(message)s"))
    package_logger = logging.getLogger("polyvem")
    package_logger.addHandler(notes)
    try:
        return args.func(args)
    except Exception as exc:  # surface one parsable line, nonzero exit
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    finally:
        package_logger.removeHandler(notes)


if __name__ == "__main__":
    sys.exit(main())

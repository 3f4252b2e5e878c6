"""polyvem benchmark: time one workload from outside the package.

    python3 perfbench/run.py --workload solve --seed 0 --seconds 55 --trace 0

Run from the root of a checkout; polyvem is imported from ``src/`` there.

``--trace 0`` repeats closed-loop passes of the workload for ``--seconds``
and reports the end-to-end metrics (medians over passes; on a single-threaded
workload, medians over rounds that run one pass on each CPU).  Only mesh
generation, assembly and the time loop are wrapped, a few calls per pass,
to split set-up from the time loop.

``--trace 1`` runs one such untraced pass, then up to three passes with every
layer entry point wrapped (see ``tracing.py``), and reports the per-layer
metrics (medians over traced passes) and the tracing overhead.  The spans go
to ``perfbench/out/trace-<workload>-seed<seed>.json``.

Every pass goes through the correctness gate in ``workloads.py``.  The last
line of standard output is the JSON result; the line before it records the
environment and the sample counts.  The exit code is 0 only if every pass
passed the gate.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
WORKLOAD_NAMES = ("solve", "study")
#: Thread-pool sizes of the numerical libraries.  They are pinned to 1 before
#: numpy loads, so a run uses at most POLYVEM_THREADS <= nproc compute threads.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
MAX_TRACED_PASSES = 3

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "timeloop_s": "s",
    "peak_rss_mb": "MB",
    "e0h": "norm",
    "e1h": "norm",
    "ops_ok_share": "1",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True, help="mesh seed")
    parser.add_argument("--seconds", type=float, required=True, help="measuring time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--short", action="store_true",
        help="end at t=0.05 and sweep three levels (smoke checks only)",
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def import_polyvem():
    """Import polyvem from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "polyvem" / "__init__.py").is_file():
        raise ImportError(f"no polyvem package under {src}")
    sys.path.insert(0, str(src))
    import polyvem

    if Path(polyvem.__file__).resolve().parent != (src / "polyvem").resolve():
        raise ImportError(f"polyvem imported from {polyvem.__file__}, not {src}")


def git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except Exception:  # show_config layout differs across numpy versions
        blas = None
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "machine": platform.machine(),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "POLYVEM_THREADS": os.environ.get("POLYVEM_THREADS"),
        "cpus": sorted(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "seed": seed,
    }


def peak_rss_mb() -> float:
    import resource

    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    return kib / 1024.0


class Runner:
    """Passes of one workload, their samples and the failure count."""

    def __init__(self, workload, ctx, workers):
        from workloads import GateError

        self.w = workload
        self.ctx = ctx
        self.gate_error = GateError
        self.attempted = 0
        self.failed = 0
        self.reference = None  # fingerprint of the first good pass
        # A single-threaded pass runs on one CPU, and on a shared host each
        # CPU's speed drifts on its own for tens of seconds; passes take the
        # allowed CPUs in turn, so a run samples all of them.
        self.cpus = sorted(os.sched_getaffinity(0)) if workers == 1 else []
        self.turn = 0

    def next_cpu(self):
        """Pin the (single-threaded) process to the next CPU in turn."""
        if len(self.cpus) > 1:
            os.sched_setaffinity(0, {self.cpus[self.turn % len(self.cpus)]})
            self.turn += 1

    def one_pass(self, tracer, ctx=None):
        """Run, time and gate one pass; returns its sample or None if it failed."""
        ctx = ctx or self.ctx
        self.next_cpu()
        self.attempted += 1
        try:
            with tracer.run_pass():
                outcome = self.w.run(ctx)
            self.w.check(outcome, ctx)
            fingerprint = outcome.fingerprint()
            if self.reference is None:
                self.reference = fingerprint
            elif fingerprint != self.reference:
                raise self.gate_error("errors or sizes differ from the first pass of this seed")
        except Exception:  # any failure counts against the pass, then the run goes on
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None
        return {
            "wall_s": tracer.pass_wall(),
            "setup_s": tracer.phase_seconds("mesh.generate")
            + tracer.phase_seconds("system.assemble"),
            "timeloop_s": tracer.phase_seconds("system.timeloop"),
            "e0h": outcome.final.e0,
            "e1h": outcome.final.e1,
        }

    def warm_up(self):
        """A tiny solve per part through the same code paths, so lazy imports
        and cached quadrature rules are ready before the first timed pass."""
        from polyvem import analysis, system
        from polyvem.system import TimeStepperConfig

        tau = 1e-3
        for part in self.w.parts:
            mesh = analysis.family_mesh("concave", 0)
            sys_ = system.assemble(mesh, part.k, self.ctx.problems[part.problem])
            result = system.run_time_loop(sys_, TimeStepperConfig(tau=tau, t_end=3 * tau))
            analysis.compute_errors(sys_, result.u, result.t)
            path = os.path.join(self.ctx.scratch, "warmup.sol")
            system.write_solution(path, sys_, result)
            system.read_solution(path)


def median(values):
    return statistics.median(values) if values else None


def round_median(values, width):
    """Median over rounds of ``width`` consecutive passes, one per CPU, each
    round taken as its mean; all passes as one round if none is complete."""
    rounds = [
        statistics.fmean(values[i : i + width]) for i in range(0, len(values) - width + 1, width)
    ]
    return median(rounds or [statistics.fmean(values)])


def run_untraced(runner, seconds):
    from tracing import Tracer

    tracer = Tracer(layers=False)
    samples = []
    start = time.perf_counter()
    with tracer.installed():
        while True:
            sample = runner.one_pass(tracer)
            if sample is not None:
                samples.append(sample)
            elapsed = time.perf_counter() - start
            typical = median([s["wall_s"] for s in samples]) or elapsed / runner.attempted
            if elapsed + typical > seconds:
                break
    series = {m: [s[m] for s in samples] for m in ("wall_s", "setup_s", "timeloop_s")}
    width = max(len(runner.cpus), 1)
    metrics = {}
    if samples:
        metrics = {
            **{m: round_median(values, width) for m, values in series.items()},
            "peak_rss_mb": peak_rss_mb(),
            "e0h": samples[-1]["e0h"],
            "e1h": samples[-1]["e1h"],
            "ops_ok_share": 1.0 - runner.failed / runner.attempted,
        }
    extras = {"passes": len(samples), "round_width": width, "samples": series}
    return metrics, END_TO_END_UNITS, extras, None


def run_traced(runner, seconds, workers):
    from tracing import Tracer, layer_metric_units

    units = layer_metric_units()
    start = time.perf_counter()
    phase = Tracer(layers=False)
    with phase.installed():
        base = runner.one_pass(phase)
    tracer = Tracer(layers=True)
    problems = {name: tracer.traced_problem(p) for name, p in runner.ctx.problems.items()}
    ctx = dataclasses.replace(runner.ctx, problems=problems)
    per_pass = []
    with tracer.installed():
        for _ in range(MAX_TRACED_PASSES):
            if runner.one_pass(tracer, ctx) is not None:
                values = tracer.layer_metrics(workers)
                counts = {m: values[m] for m, u in units.items() if u == "count"}
                if per_pass and counts != {m: per_pass[0][m] for m in counts}:
                    runner.failed += 1
                    print("traced counts differ from the first traced pass", file=sys.stderr)
                    continue
                per_pass.append(values)
            elapsed = time.perf_counter() - start
            typical = median([p["trace.wall_s"] for p in per_pass]) or elapsed
            if elapsed + typical > seconds:
                break
    metrics = {}
    if per_pass and base is not None:
        metrics = {m: median([p[m] for p in per_pass]) for m in units if m != "trace.overhead_s"}
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - base["wall_s"]
    return metrics, units, {"traced_passes": len(per_pass)}, tracer


def write_json(path: Path, payload) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    try:
        import_polyvem()
    except ImportError as exc:
        print(f"perfbench: cannot import polyvem: {exc}", file=sys.stderr)
        return 2

    import warnings

    from polyvem.forms import CoefficientWarning
    from polyvem.problems import get_problem
    from workloads import WORKLOADS, Context

    # the variable problem warns on every assembly by design (sigma < 0)
    warnings.simplefilter("ignore", CoefficientWarning)
    workload = WORKLOADS[args.workload]
    workers = min(workload.workers, nproc())
    os.environ["POLYVEM_THREADS"] = str(workers)

    OUT.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as scratch:
        problems = {part.problem: get_problem(part.problem) for part in workload.parts}
        ctx = Context(problems, args.seed, args.short, scratch)
        runner = Runner(workload, ctx, workers)
        runner.warm_up()
        try:
            if args.trace:
                metrics, units, extras, tracer = run_traced(runner, args.seconds, workers)
            else:
                metrics, units, extras, tracer = run_untraced(runner, args.seconds)
        finally:
            if runner.cpus:
                os.sched_setaffinity(0, runner.cpus)

    correct = runner.failed == 0 and set(metrics) == set(units)
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "short": args.short,
        "env": environment(args.seed),
        "attempted": runner.attempted,
        "failed": runner.failed,
        "ops_failed_share": runner.failed / max(runner.attempted, 1),
        **extras,
    }
    stem = f"{args.workload}-seed{args.seed}{'-short' if args.short else ''}"
    if tracer is not None:
        record["absent_entry_points"] = sorted(set(tracer.absent))
        write_json(OUT / f"trace-{stem}.json", {**record, "spans": tracer.spans})
    result = {
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {
            m: {"value": int(v) if units[m] == "count" else float(v), "unit": units[m]}
            for m, v in metrics.items()
        },
    }
    write_json(OUT / f"result-{stem}-trace{args.trace}.json", {**record, "result": result})
    print(json.dumps(record))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

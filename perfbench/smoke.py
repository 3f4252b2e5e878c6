"""Smoke check of the benchmark itself, in short mode (under a minute).

    python3 perfbench/smoke.py

Runs every workload of BENCHMARK.json once with ``--trace 0`` and once with
``--trace 1`` in short mode and checks that each run passes its correctness
gate, emits exactly the metrics BENCHMARK.json names with their units, that
end-to-end values are positive, that on serial workloads the per-layer self
times add up to the traced wall time, and that each layer a workload is
meant to exercise shows up in its trace.  Not part of the test suite.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SELF_SUM_TOLERANCE = 0.03  # share of the traced wall time
#: Per-layer metrics that must be nonzero on a workload, because its pass
#: runs that layer; every workload also builds elements and measures errors.
MUST_RUN = {
    "solve": ("system.snapshot_write_s", "system.snapshot_read_s", "mesh.cells_v6"),
    "study": (
        "mesh.refine_s", "analysis.error_indicators_s", "mesh.hanging_node_cells",
        "analysis.level_s.max", "analysis.parallel_efficiency",
    ),
}
#: Workloads with level-parallel workers, whose thread times add to the wall.
PARALLEL = ("study",)
ALWAYS_RUN = (
    "mesh.generate_s",
    "projectors.build_element_s",
    "forms.build_local_forms_s",
    "system.factor_s",
    "system.lu_solve_s",
    "problems.f_s",
    "analysis.compute_errors_s",
    "quadrature.points",
)


def run(spec: dict, workload: str, trace: int) -> tuple[dict, list[str]]:
    cmd = spec["command"] + [
        "--workload", workload, "--seed", "0", "--seconds", "1",
        "--trace", str(trace), "--short",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    label = f"{workload} trace={trace}"
    lines = proc.stdout.strip().splitlines()
    if not lines:
        return {}, [f"{label}: no output (exit {proc.returncode})\n{proc.stderr}"]
    result = json.loads(lines[-1])
    problems = []
    if proc.returncode != 0 or not result["correct"] or result["failed"]:
        problems.append(f"{label}: exit {proc.returncode}, result {result}\n{proc.stderr}")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(result)}")
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: v["unit"] for name, v in result["metrics"].items()}
    if got != declared:
        missing = sorted(set(declared) - set(got))
        extra = sorted(set(got) - set(declared))
        wrong = sorted(n for n in set(got) & set(declared) if got[n] != declared[n])
        problems.append(f"{label}: missing {missing}, extra {extra}, wrong unit {wrong}")
    for name, v in result["metrics"].items():
        value = v["value"]
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{label}: {name} = {value!r} is not a finite number")
        elif not trace and value <= 0:
            problems.append(f"{label}: end-to-end {name} = {value!r} is not positive")
    return result["metrics"], problems


def check_layers(workload: str, metrics: dict) -> list[str]:
    problems = []
    value = {name: v["value"] for name, v in metrics.items()}
    for name in ALWAYS_RUN + MUST_RUN[workload]:
        if not value.get(name):
            problems.append(f"{workload} trace=1: {name} is zero but the workload runs it")
    if workload not in PARALLEL:
        wall, total = value["trace.wall_s"], value["trace.self_sum_s"]
        if abs(total - wall) > SELF_SUM_TOLERANCE * wall:
            problems.append(f"{workload}: self times sum to {total:.4f} s, traced wall {wall:.4f} s")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            metrics, found = run(spec, workload, trace)
            problems += found
            if trace and metrics:
                problems += check_layers(workload, metrics)
            print(f"{workload} trace={trace}: {'ok' if not found else 'FAILED'}", flush=True)
    for line in problems:
        print(line, file=sys.stderr)
    print("smoke: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

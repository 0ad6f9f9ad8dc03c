"""perfbench: the repository benchmark, end to end and layer by layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload service --seed 1 --seconds 30 --trace 0

Workloads (``--workload``; ``all`` runs the three in turn):

``service``        the prediction service over real HTTP (``wl_service``)
``campaign``       figure campaigns through the runner and store (``wl_campaign``)
``flowsim-churn``  flow-level runs with and without churn (``wl_flowsim``)

All inputs derive from ``--seed``.  With ``--trace 0`` the run measures
for ``--seconds`` and reports the end-to-end metrics of
``BENCHMARK.json``.  Every workload fills the same five (``setup_s``,
``fast_ms``, ``fast_per_s``, ``slow_ms``, ``slow_per_s``), each from its
own phases; ``README.md`` beside this file maps them.  Those a workload
does not name in ``Outcome.raw`` are reported at the reference host
speed of ``calibrate``, whose kernel is timed throughout the run
(``host_slowdown``).  The lines before
the result also print each workload's own named metrics (``hit_p50_ms``,
``mc_points_per_s``, ...), ``error_frac``, the per-phase attempted /
succeeded / failed counts and a run manifest.

With ``--trace 1`` the run makes one fixed-work pass untraced and two
traced (wrappers from ``bench_trace`` around each layer's calls, plus
the ``repro.telemetry`` counters), and reports the per-layer metrics of
``BENCHMARK.json``.  Layers the workload does not touch are timed on a
small probe of the workload that does.  The spans of the first traced
pass are written to ``.perfbench-out/<workload>.spans.jsonl``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
0 when every output check passed, 1 when one failed, and 2 when the
checkout holds no ``src/repro`` to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

import bench_trace  # noqa: E402
import calibrate  # noqa: E402
import wl_campaign  # noqa: E402
import wl_flowsim  # noqa: E402
import wl_service  # noqa: E402
from bench_stats import Accounting, Checks, Outcome  # noqa: E402

#: Calibration samples taken before and after a measured run; the
#: workloads take more at their round boundaries.
EDGE_SAMPLES = 3
TIME_UNITS = {"s", "ms", "us"}
RATE_UNITS = {"1/s"}

WORKLOADS = {
    "service": wl_service,
    "campaign": wl_campaign,
    "flowsim-churn": wl_flowsim,
}


class Context:
    """What a workload needs to know about this run."""

    def __init__(self, seed: int, seconds: float, work: Path) -> None:
        self.root = ROOT
        self.bench = BENCH
        self.seed = seed
        self.seconds = seconds
        self.work = work
        paths = [str(ROOT / "src"), str(BENCH)]
        if os.environ.get("PYTHONPATH"):
            paths.append(os.environ["PYTHONPATH"])
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
        self.speed = calibrate.HostSpeed()


# ----------------------------------------------------------------------
# Untraced runs: the end-to-end metrics
# ----------------------------------------------------------------------
def run_measure(ctx: Context, name: str, spec: Dict[str, Any]):
    ctx.speed.sample(EDGE_SAMPLES)
    out = WORKLOADS[name].measure(ctx)
    ctx.speed.sample(EDGE_SAMPLES)
    slowdown = ctx.speed.slowdown
    out.named["host_slowdown"] = (
        slowdown, "ratio",
        f"trimmed mean of {len(ctx.speed.samples)} calibration samples",
    )
    metrics = {}
    for metric in spec["end_to_end"]:
        value = out.e2e[metric["name"]]
        if metric["name"] not in out.raw:
            value = at_reference_speed(value, metric["unit"], slowdown)
        metrics[metric["name"]] = (value, metric["unit"])
    return [out], out.accounting, out.checks, metrics


def at_reference_speed(value: float, unit: str, slowdown: float) -> float:
    """``value`` as the run would have measured it at the reference speed."""
    if unit in TIME_UNITS:
        return value / slowdown
    if unit in RATE_UNITS:
        return value * slowdown
    return value


# ----------------------------------------------------------------------
# Traced runs: the per-layer metrics
# ----------------------------------------------------------------------
def run_traced(ctx: Context, name: str, spec: Dict[str, Any]):
    module = WORKLOADS[name]
    passes = [
        module.fixed(ctx, traced=False, label="untraced"),
        module.fixed(ctx, traced=True, label="traced-1"),
        module.fixed(ctx, traced=True, label="traced-2"),
    ]
    untraced, first, second = passes
    checks = Checks()
    checks.expect(
        untraced.extras["digest"] == first.extras["digest"] == second.extras["digest"],
        f"{name}: the same seed gave different results across passes",
    )
    for counter in bench_trace.EXACT_COUNTERS:
        checks.expect(
            first.counters.get(counter) == second.counters.get(counter),
            f"{name}: telemetry counter {counter} did not repeat "
            f"({first.counters.get(counter)} vs {second.counters.get(counter)})",
        )

    layer: Dict[str, Optional[float]] = {
        metric["name"]: None for metric in spec["per_layer"]
    }
    _fill(layer, module.layer_metrics(first))
    probed: List[str] = []
    for other_name, other in WORKLOADS.items():
        if other is module:
            continue
        probe = other.fixed(ctx, traced=True, probe=True,
                            label=f"probe-{other_name}")
        passes.append(probe)
        probed += _fill(layer, other.layer_metrics(probe))

    accounting = Accounting()
    for outcome in passes:
        accounting.merge(outcome.accounting)
        checks.merge(outcome.checks)
    layer["trace.overhead_frac"] = (first.wall - untraced.wall) / untraced.wall
    layer["harness.error_frac"] = accounting.error_frac
    for metric, value in layer.items():
        if value is None:
            checks.fail(f"per-layer metric {metric} was not measured")
            layer[metric] = 0.0

    out_dir = ROOT / ".perfbench-out"
    out_dir.mkdir(exist_ok=True)
    bench_trace.write_spans(out_dir / f"{name}.spans.jsonl", first.spans)
    units = {metric["name"]: metric["unit"] for metric in spec["per_layer"]}
    metrics = {metric: (value, units[metric]) for metric, value in layer.items()}
    untraced.named["probed_layers"] = (len(probed), "count", ", ".join(
        sorted({metric.rsplit(".", 1)[0] for metric in probed})
    ))
    return passes, accounting, checks, metrics


def _fill(layer: Dict[str, Optional[float]],
          found: Dict[str, Optional[float]]) -> List[str]:
    filled = []
    for metric, value in found.items():
        if value is not None and layer.get(metric, 0.0) is None:
            layer[metric] = value
            filled.append(metric)
    return filled


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def manifest(args, outcomes: List[Outcome]) -> Dict[str, Any]:
    import numpy

    rev, dirty = None, None
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True,
                                 check=True).stdout.strip()
            dirty = bool(subprocess.run(["git", "status", "--porcelain"],
                                        cwd=ROOT, capture_output=True,
                                        text=True, check=True).stdout.strip())
        except (OSError, subprocess.CalledProcessError):
            rev, dirty = None, None
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    hashes: Dict[str, str] = {}
    for outcome in outcomes:
        hashes.update(outcome.hashes)
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_rev": rev,
        "git_dirty": dirty,
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "spec_hashes": hashes,
    }


def report(name: str, passes: List[Outcome], accounting: Accounting,
           checks: Checks) -> None:
    print(f"== {name}")
    for outcome in passes[:1]:
        for metric, (value, unit, note) in outcome.named.items():
            print(f"  {metric:<24} {value:>14.6g} {unit:<6} {note}")
    print(f"  {'error_frac':<24} {accounting.error_frac:>14.6g} {'frac':<6} "
          f"{accounting.failed} failed / {accounting.attempted} attempted")
    for phase, counts in accounting.phases.items():
        print(f"  phase {phase:<18} attempted {counts['attempted']:>7} "
              f"succeeded {counts['succeeded']:>7} failed {counts['failed']:>5}")
    print(f"  checks: {checks.passed} passed, {checks.failed} failed")
    for message in checks.failures:
        print(f"  CHECK FAILED: {message}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: {ROOT} holds no src/repro to measure",
              file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    sys.path.insert(0, str(ROOT / "src"))

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    work_root = ROOT / ".perfbench-work"
    work = work_root / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    correct, attempted, failed = True, 0, 0
    metrics: Dict[str, Dict[str, Any]] = {}
    outcomes: List[Outcome] = []
    started = time.perf_counter()
    try:
        for name in names:
            ctx = Context(args.seed, args.seconds, work / name)
            ctx.work.mkdir()
            run = run_traced if args.trace else run_measure
            passes, accounting, checks, found = run(ctx, name, spec)
            report(name, passes, accounting, checks)
            outcomes += passes
            correct = correct and checks.ok and accounting.failed == 0
            attempted += accounting.attempted
            failed += accounting.failed
            prefix = "" if len(names) == 1 else f"{name}."
            for metric, (value, unit) in found.items():
                metrics[prefix + metric] = {"value": value, "unit": unit}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass
    run_manifest = manifest(args, outcomes)
    run_manifest["wall_s"] = time.perf_counter() - started
    print("manifest " + json.dumps(run_manifest, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""The ``flowsim-churn`` workload: flow-level runs with and without churn.

Each round runs :func:`repro.flowsim.run_flowsim` once with
``poisson-arrivals`` (about 10k arrivals per simulated second,
exponential durations) and ``fixed_runs`` times with a
``fixed-population`` of comparable flowlet count; all use the sqrt
formula, p = 0.1, cv = 0.6 and L = 8.  Churn is bound by the event heap
(two events per flow), a fixed population by the numpy tick.

Output checks: ``normalized_mean_rate`` of every run stays within 5% of
the formula's prediction, and re-running the first round's configs with
the same seeds gives identical summaries.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional

import numpy as np

import bench_trace
from bench_stats import Outcome, same_json, spec_hash

COMMON = {
    "formula": "sqrt",
    "loss_event_rate": 0.1,
    "coefficient_of_variation": 0.6,
    "history_length": 8,
    "interval": 1.0,
}
#: Allowed relative distance of ``normalized_mean_rate`` from 1.
RATE_BAND = 0.05

FULL_PLAN = {"arrival_rate": 10_000.0, "churn_duration": 3.0,
             "fixed_flows": 4_000, "fixed_duration": 3.0, "fixed_runs": 12}
PROBE_PLAN = {"arrival_rate": 2_000.0, "churn_duration": 2.0,
              "fixed_flows": 500, "fixed_duration": 2.0, "fixed_runs": 1}


def round_configs(seed: int, index: int, plan: Dict[str, Any]) -> Dict[str, Any]:
    """The churn config and the fixed-population configs of one round."""
    seeds = np.random.default_rng([seed, index]).integers(
        2**31, size=1 + plan["fixed_runs"]
    )
    churn = dict(
        COMMON, seed=int(seeds[0]), duration=plan["churn_duration"],
        generator={"kind": "poisson-arrivals",
                   "arrival_rate": plan["arrival_rate"], "mean_duration": 2.0},
    )
    fixed = [
        dict(COMMON, seed=int(value), duration=plan["fixed_duration"],
             generator={"kind": "fixed-population",
                        "num_flows": plan["fixed_flows"]})
        for value in seeds[1:]
    ]
    return {"churn": churn, "fixed": fixed}


def _run(out: Outcome, phase: str, config: Dict[str, Any],
         tracer: Optional[bench_trace.Tracer]) -> Optional[Dict[str, Any]]:
    from repro.flowsim import run_flowsim

    try:
        if tracer is None:
            summary = run_flowsim(config).summary()
        else:
            with tracer.span("flowsim.run.run_flowsim", root=True):
                summary = run_flowsim(config).summary()
    except (ValueError, RuntimeError) as exc:
        out.accounting.record(phase, False)
        out.checks.fail(f"{phase}: run_flowsim raised {exc!r}")
        return None
    in_band = abs(summary["normalized_mean_rate"] - 1.0) <= RATE_BAND
    out.accounting.record(phase, in_band)
    out.checks.expect(
        in_band,
        f"{phase}: normalized_mean_rate {summary['normalized_mean_rate']:.4f} "
        f"outside the {RATE_BAND:.0%} band",
    )
    return summary


def run_round(out: Outcome, configs: Dict[str, Any], tally: Dict[str, Any],
              tracer: Optional[bench_trace.Tracer] = None) -> List[Any]:
    summaries = []
    for phase, config in [("churn", configs["churn"])] + [
        ("fixed", config) for config in configs["fixed"]
    ]:
        started = time.perf_counter()
        summary = _run(out, phase, config, tracer)
        wall = time.perf_counter() - started
        summaries.append(summary)
        if summary is not None:
            tally[phase]["walls"].append(wall)
            tally[phase]["flowlets"] += summary["flowlets_emitted"]
    return summaries


def _summarise(out: Outcome, tally: Dict[str, Any],
               setups: Optional[List[float]]) -> None:
    rate = {}
    for phase in ("churn", "fixed"):
        wall = sum(tally[phase]["walls"])
        rate[phase] = tally[phase]["flowlets"] / wall if wall else 0.0
        out.named[f"{phase}_flowlets_per_s"] = (
            rate[phase], "1/s",
            f"{tally[phase]['flowlets']} flowlets in "
            f"{len(tally[phase]['walls'])} runs",
        )
    out.wall = sum(sum(tally[phase]["walls"]) for phase in ("churn", "fixed"))
    mean_ms = {}
    for phase in ("churn", "fixed"):
        walls = tally[phase]["walls"]
        mean_ms[phase] = sum(walls) / len(walls) * 1e3 if walls else out.wall
        out.named[f"{phase}_run_ms"] = (mean_ms[phase], "ms",
                                        f"mean of {len(walls)}")
    if setups is not None:
        out.timing("setup_s", setups, 1.0, "s", out.wall)
        out.e2e = {
            "setup_s": out.named["setup_s"][0],
            "fast_ms": mean_ms["fixed"],
            "fast_per_s": rate["fixed"],
            "slow_ms": mean_ms["churn"],
            "slow_per_s": rate["churn"],
        }


def _new_tally() -> Dict[str, Any]:
    return {phase: {"walls": [], "flowlets": 0} for phase in ("churn", "fixed")}


def measure(ctx) -> Outcome:
    """Rounds until ``ctx.seconds`` is used up, then a same-seed re-run."""
    from setup_probe import measure_setup

    out = Outcome()
    setups = measure_setup(ctx, "flowsim-churn")
    tally = _new_tally()
    started = time.perf_counter()
    first: List[Any] = []
    index = 0
    while time.perf_counter() - started < ctx.seconds or index == 0:
        ctx.speed.sample()
        configs = round_configs(ctx.seed, index, FULL_PLAN)
        out.hashes.setdefault("flowsim.round0", spec_hash(configs))
        summaries = run_round(out, configs, tally)
        if index == 0:
            first = summaries
        index += 1
    again = run_round(out, round_configs(ctx.seed, 0, FULL_PLAN), _new_tally())
    out.checks.expect(same_json(first, again),
                      "same seed gave a different summary()")
    _summarise(out, tally, setups)
    return out


def fixed(ctx, traced: bool, probe: bool = False, label: str = "pass") -> Outcome:
    """One round (traced runs and probes)."""
    out = Outcome()
    tally = _new_tally()
    configs = round_configs(ctx.seed, 0, PROBE_PLAN if probe else FULL_PLAN)
    if traced:
        with bench_trace.InProcess(out, bench_trace.install_flowsim) as tracer:
            summaries = run_round(out, configs, tally, tracer)
    else:
        summaries = run_round(out, configs, tally)
    out.extras["digest"] = spec_hash(summaries)
    _summarise(out, tally, None)
    return out


def layer_metrics(out: Outcome) -> Dict[str, Optional[float]]:
    """The flow-level engine and run layers from a traced pass."""
    view = bench_trace.SpanView(out.spans)
    events = out.counters.get("flowsim.events_processed")
    flowlets = out.counters.get("flowsim.flowlets")
    core_s = view.total_s("flowsim.core.run")
    return {
        "flowsim.core.events": events,
        "flowsim.core.events_per_flowlet": (
            events / flowlets if events and flowlets else None
        ),
        "flowsim.core.schedule_us": view.median_us("flowsim.core.schedule"),
        "flowsim.run.open_us": view.median_us("flowsim.run.open"),
        "flowsim.run.close_us": view.median_us("flowsim.run.close"),
        "flowsim.run.tick_share": (
            view.total_s("flowsim.run.tick") / core_s if core_s else None
        ),
        "flowsim.run.flowlets_dropped": out.counters.get("flowsim.flowlets_dropped"),
        **bench_trace.self_metrics(view),
    }

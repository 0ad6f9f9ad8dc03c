"""The ``campaign`` workload: figure campaigns through the experiment runner.

The in-process :class:`~repro.experiments.runner.ExperimentRunner`
(serial, the CLI default) runs, per round, against a fresh JSONL
:class:`~repro.experiments.store.ResultStore`:

``mc``
    a subset of the ``fig3-pftk`` grid (rounds rotate through its window
    lengths; ``mc_points`` seed-chosen loss rates) at the preset's 20k
    events per point -- the Monte-Carlo kernel dominates;
``packet``
    one scenario of the ``fig5-ns2-batch`` preset (rounds rotate through
    its three scenarios) -- the packet simulator dominates;
``shortflow``
    a CSA00 short-flow grid of a few thousand seed-drawn (size, p, RTT)
    points -- each point costs well under a millisecond, so the runner
    and the store dominate;
``rerun``
    all three again, through a newly opened store on the same file: every
    point must come back cached with the value of the fresh pass, so only
    the store's read path runs.  A measured run does this ``RERUNS``
    times per round.

Rounds repeat until ``--seconds`` is used up.  The rotations follow the
round index alone, so runs of equal length do the same mix of window
lengths and scenarios whatever the seed; the seed draws the loss rates,
the simulation seeds and the short-flow grid.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Any, Dict, List, Optional

import numpy as np

import bench_trace
from bench_stats import Outcome, median, same_json, spec_hash

#: Per-round work; a probe is the small version other workloads' traced
#: runs use to time the campaign layers.
FULL_PLAN = {"mc_points": 2, "mc_events": None, "shortflow": (16, 16, 8),
             "dumbbell_duration": None}
PROBE_PLAN = {"mc_points": 1, "mc_events": 2_000, "shortflow": (5, 5, 2),
              "dumbbell_duration": 10.0}
PHASES = ("mc", "packet", "shortflow")
#: Cached re-runs per round in a measured run: one takes a tenth of a
#: second, too little of the run to time steadily.
RERUNS = 3


def round_specs(seed: int, index: int, plan: Dict[str, Any]) -> Dict[str, Any]:
    """The three campaign specs of one round, drawn from the seed."""
    from repro.experiments.registry import preset

    rng = np.random.default_rng([seed, index])
    derived = int(rng.integers(2**31))

    fig3 = preset("fig3-pftk")
    lengths = fig3.grid["history_length"]
    base = dict(fig3.base)
    if plan["mc_events"] is not None:
        base["num_events"] = plan["mc_events"]
    rates = rng.choice(fig3.grid["loss_event_rate"], size=plan["mc_points"],
                       replace=False)
    mc = dataclasses.replace(
        fig3, name="fig3-pftk-subset", base=base, seed=derived,
        grid={"history_length": [lengths[index % len(lengths)]],
              "loss_event_rate": sorted(float(rate) for rate in rates)},
    )

    fig5 = preset("fig5-ns2-batch")
    scenarios = fig5.grid["scenario"]
    scenario = dict(scenarios[index % len(scenarios)])
    if plan["dumbbell_duration"] is not None:
        scenario["duration"] = plan["dumbbell_duration"]
    packet = dataclasses.replace(fig5, grid={"scenario": [scenario]},
                                 seed=derived + 1)

    sizes, rates, rtts = plan["shortflow"]
    short = preset("fig-shortflow")
    shortflow = dataclasses.replace(
        short, name="shortflow-grid", seed=derived + 2,
        grid={
            "transfer_size": np.exp(rng.uniform(0.0, np.log(4096.0), sizes)).tolist(),
            "loss_event_rate": rng.uniform(0.005, 0.25, rates).tolist(),
            "rtt": rng.uniform(0.02, 0.5, rtts).tolist(),
        },
    )
    return {"mc": mc, "packet": packet, "shortflow": shortflow}


def _point_walls(started: float, marks: List[float]) -> List[float]:
    return [end - start for start, end in zip([started] + marks[:-1], marks)]


def run_round(ctx, out: Outcome, specs: Dict[str, Any], store_path: str,
              tally: Dict[str, Any], reruns: int = 1) -> None:
    """One fresh pass and ``reruns`` cached re-runs, checked and timed."""
    from repro.experiments.runner import ExperimentRunner

    marks: List[float] = []

    def progress(done, total, result) -> None:
        marks.append(time.perf_counter())

    runner = ExperimentRunner(store=store_path, progress=progress)
    fresh = {}
    for phase, spec in specs.items():
        out.hashes.setdefault(f"campaign.{phase}", spec_hash(spec.to_dict()))
        marks.clear()
        started = time.perf_counter()
        result = runner.run(spec)
        wall = time.perf_counter() - started
        walls = _point_walls(started, marks)
        tally[phase]["points"] += result.num_points
        tally[phase]["wall"] += wall
        tally[phase]["walls"].extend(walls)
        tally["fresh_point_walls"].extend(walls)
        for point in result.results:
            out.accounting.record(phase, point.status == "ok")
            out.checks.expect(point.status == "ok",
                              f"{phase}: point {point.point.index} "
                              f"{point.status}: {point.error}")
        fresh[phase] = result

    for _ in range(reruns):
        _rerun(out, specs, store_path, tally, fresh)
    tally["digest"].append(
        spec_hash({phase: r.values() for phase, r in fresh.items()})
    )


def _rerun(out: Outcome, specs: Dict[str, Any], store_path: str,
           tally: Dict[str, Any], fresh: Dict[str, Any]) -> None:
    """All specs again through a newly opened store: every point cached."""
    from repro.experiments.runner import ExperimentRunner
    from repro.experiments.store import ResultStore

    marks: List[float] = []

    def progress(done, total, result) -> None:
        marks.append(time.perf_counter())

    started = time.perf_counter()
    rerunner = ExperimentRunner(store=ResultStore(store_path), progress=progress)
    reruns = {phase: rerunner.run(spec) for phase, spec in specs.items()}
    wall = time.perf_counter() - started
    tally["rerun"]["points"] += sum(r.num_points for r in reruns.values())
    tally["rerun"]["wall"] += wall
    tally["rerun"]["walls"].extend(_point_walls(started, marks))
    for phase, result in reruns.items():
        for point, first in zip(result.results, fresh[phase].results):
            cached = point.status == "cached"
            out.accounting.record("rerun", cached)
            out.checks.expect(cached, f"rerun {phase}: point {point.point.index} "
                                      f"was {point.status}, not cached")
            out.checks.expect(same_json(point.value, first.value),
                              f"rerun {phase}: point {point.point.index} "
                              "value differs from the fresh pass")


def _new_tally() -> Dict[str, Any]:
    tally: Dict[str, Any] = {
        phase: {"points": 0, "wall": 0.0, "walls": []}
        for phase in PHASES + ("rerun",)
    }
    tally["fresh_point_walls"] = []
    tally["digest"] = []
    return tally


def _summarise(out: Outcome, tally: Dict[str, Any],
               setups: Optional[List[float]]) -> None:
    rate = {
        phase: tally[phase]["points"] / tally[phase]["wall"]
        for phase in PHASES + ("rerun",)
    }
    for phase, name in (("mc", "mc_points_per_s"),
                        ("packet", "packet_points_per_s"),
                        ("shortflow", "shortflow_points_per_s"),
                        ("rerun", "rerun_points_per_s")):
        out.named[name] = (rate[phase], "1/s",
                           f"{tally[phase]['points']} points")
    fresh_points = sum(tally[phase]["points"] for phase in PHASES)
    fresh_wall = sum(tally[phase]["wall"] for phase in PHASES)
    out.wall = fresh_wall + tally["rerun"]["wall"]
    out.named["fresh_points_per_s"] = (fresh_points / fresh_wall, "1/s",
                                       f"{fresh_points} points")
    out.timing("mc_point_p50_ms", tally["mc"]["walls"], 1e3, "ms", out.wall)
    out.timing("rerun_point_p50_ms", tally["rerun"]["walls"], 1e3, "ms",
               out.wall)
    out.extras["fresh_point_walls"] = tally["fresh_point_walls"]
    out.extras["digest"] = tally["digest"]
    if setups is not None:
        out.timing("setup_s", setups, 1.0, "s", out.wall)
        out.e2e = {
            "setup_s": out.named["setup_s"][0],
            "fast_ms": 1e3 / rate["shortflow"],
            "fast_per_s": rate["rerun"],
            "slow_ms": 1e3 / rate["mc"],
            "slow_per_s": fresh_points / fresh_wall,
        }


def measure(ctx) -> Outcome:
    """Rounds until ``ctx.seconds`` is used up (at least one)."""
    from setup_probe import measure_setup

    out = Outcome()
    setups = measure_setup(ctx, "campaign")
    tally = _new_tally()
    started = time.perf_counter()
    round_walls: List[float] = []
    index = 0
    while True:
        ctx.speed.sample(2)
        began = time.perf_counter()
        run_round(ctx, out, round_specs(ctx.seed, index, FULL_PLAN),
                  str(ctx.work / f"campaign-{index}.jsonl"), tally, RERUNS)
        round_walls.append(time.perf_counter() - began)
        index += 1
        if time.perf_counter() - started + median(round_walls) > ctx.seconds:
            break
    _summarise(out, tally, setups)
    return out


def fixed(ctx, traced: bool, probe: bool = False, label: str = "pass") -> Outcome:
    """One round (traced runs and probes)."""
    out = Outcome()
    tally = _new_tally()
    specs = round_specs(ctx.seed, 0, PROBE_PLAN if probe else FULL_PLAN)
    store = str(ctx.work / f"campaign-{label}.jsonl")
    if traced:
        with bench_trace.InProcess(out, bench_trace.install_campaign):
            run_round(ctx, out, specs, store, tally)
    else:
        run_round(ctx, out, specs, store, tally)
    _summarise(out, tally, None)
    return out


def layer_metrics(out: Outcome) -> Dict[str, Optional[float]]:
    """The runner, store, simulator and short-flow layers from a traced pass."""
    view = bench_trace.SpanView(out.spans)
    duration = bench_trace.duration
    executed = sorted(view.named("experiments.runner.execute_point"),
                      key=lambda span: span[bench_trace.START])
    overhead = [
        wall - duration(span)
        for wall, span in zip(out.extras["fresh_point_walls"], executed)
    ]
    loads = [span for span in view.named("experiments.store.jsonl_open")
             if bench_trace.attr(span, "records", 0) > 0]
    gets = view.named("experiments.store.jsonl_get")
    events = out.counters.get("simulator.events")
    run_s = view.total_s("simulator.run")
    return {
        "experiments.store.jsonl_put_us": view.median_us("experiments.store.jsonl_put"),
        "experiments.store.jsonl_load_ms": (
            median([duration(span) for span in loads]) * 1e3 if loads else None
        ),
        "experiments.store.jsonl_get_us": view.median_us("experiments.store.jsonl_get"),
        "experiments.store.jsonl_hit_ratio": (
            sum(1 for span in gets if bench_trace.attr(span, "hit")) / len(gets)
            if gets else None
        ),
        "experiments.runner.point_overhead_us": (
            median(overhead) * 1e6 if overhead else None
        ),
        "experiments.runner.expand_ms": view.median_ms("experiments.runner.expand"),
        "experiments.runner.key_us": view.median_us("experiments.runner.key"),
        "simulator.run_ms": view.median_ms("simulator.run"),
        "simulator.events": events,
        "simulator.events_per_s": events / run_s if events and run_s else None,
        "core.shortflow.model_us": view.median_us("core.shortflow.model"),
        **bench_trace.api_metrics(view),
        **bench_trace.self_metrics(view),
    }

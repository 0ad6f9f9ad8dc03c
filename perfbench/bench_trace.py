"""Span tracing from the benchmark's own code, and the per-layer metrics.

The program under test is not edited: :class:`Tracer` replaces public
names with timing wrappers *where their callers look them up* (module
globals, class attributes), records one span per call in memory, and
restores the originals on :meth:`Tracer.uninstall`.  A span is a tuple
``(id, name, start, end, parent, request, thread, attrs)``; the parent
and the request id follow the caller through ``contextvars``, so spans
of one HTTP request or one campaign point share a request id.  Work that
hops to an executor thread loses that context; :func:`adopt` re-links
such spans to the span whose interval contains them.

A span's layer is its name without the last dotted segment
(``service.core.key`` -> ``service.core``); a layer's self time is its
spans' durations minus the part covered by their child spans.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import inspect
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence

from bench_stats import median

ID, NAME, START, END, PARENT, REQUEST, THREAD, ATTRS = range(8)

#: The ``repro.telemetry`` counters that must repeat exactly between two
#: traced passes at one seed.
EXACT_COUNTERS = (
    "memo.hit",
    "store.hit",
    "api.batch.rows",
    "simulator.events",
    "flowsim.events_processed",
)

_MISSING = object()
Annotate = Callable[[Any, tuple, dict], Dict[str, Any]]


class Tracer:
    """In-memory span log plus the patches that feed it."""

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=None
        )
        self._patches: List[tuple] = []

    # ------------------------------------------------------------------
    def _open(self, root: bool):
        parent = self._current.get()
        span_id = next(self._ids)
        request = span_id if root or parent is None else parent[1]
        token = self._current.set((span_id, request))
        return span_id, (None if parent is None else parent[0]), request, token

    def _close(self, name, opened, start, attrs) -> None:
        end = time.perf_counter()
        span_id, parent, request, token = opened
        self._current.reset(token)
        self.spans.append(
            (span_id, name, start, end, parent, request,
             threading.get_ident(), attrs)
        )

    @contextlib.contextmanager
    def span(self, name: str, root: bool = False):
        """Record one span around a block."""
        opened = self._open(root)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(name, opened, start, None)

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        root: bool = False,
        annotate: Optional[Annotate] = None,
    ) -> None:
        """Replace ``owner.attr`` by a wrapper that records a span per call."""
        original = getattr(owner, attr)
        tracer = self

        if inspect.iscoroutinefunction(original):
            async def wrapper(*args, **kwargs):
                opened = tracer._open(root)
                start = time.perf_counter()
                attrs = None
                try:
                    result = await original(*args, **kwargs)
                    if annotate is not None:
                        attrs = annotate(result, args, kwargs)
                    return result
                finally:
                    tracer._close(name, opened, start, attrs)
        else:
            def wrapper(*args, **kwargs):
                opened = tracer._open(root)
                start = time.perf_counter()
                attrs = None
                try:
                    result = original(*args, **kwargs)
                    if annotate is not None:
                        attrs = annotate(result, args, kwargs)
                    return result
                finally:
                    tracer._close(name, opened, start, attrs)

        functools.update_wrapper(wrapper, original)
        previous = vars(owner).get(attr, _MISSING)
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, previous))

    def uninstall(self) -> None:
        """Put every patched name back."""
        while self._patches:
            owner, attr, previous = self._patches.pop()
            if previous is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, previous)



def write_spans(path: Any, spans: Sequence[tuple]) -> None:
    """Write a span log as JSONL, one span per line."""
    with open(path, "w", encoding="utf-8") as handle:
        for span in spans:
            handle.write(json.dumps(span) + "\n")


# ----------------------------------------------------------------------
# The wrappers, one set per workload family
# ----------------------------------------------------------------------
def _cache(result, args, kwargs):
    return {"cache": result["cache"]}


def install_service(tracer: Tracer) -> None:
    """Layer boundaries of the prediction service (server process)."""
    import repro.api
    from repro.experiments.store import MemoisingStore
    from repro.service import core, http

    tracer.wrap(http, "_dispatch", "service.http.dispatch", root=True)
    tracer.wrap(core.PredictionService, "predict", "service.core.predict",
                annotate=_cache)
    tracer.wrap(core.PredictionService, "predict_batch",
                "service.core.predict_batch", annotate=_cache)
    tracer.wrap(core, "prediction_key", "service.core.key")
    tracer.wrap(core, "batch_request_key", "service.core.key")
    tracer.wrap(core, "plan_shards", "service.workers.plan",
                annotate=lambda result, args, kwargs: {"shards": len(result)})
    tracer.wrap(core, "merge_shard_results", "service.workers.merge")
    tracer.wrap(MemoisingStore, "get", "experiments.store.memo_get",
                annotate=lambda result, args, kwargs: {"hit": result is not None})
    tracer.wrap(MemoisingStore, "put", "experiments.store.memo_put")
    _wrap_api(tracer, repro.api, "simulate", "simulate_batch")


def install_campaign(tracer: Tracer) -> None:
    """Layer boundaries of the campaign runner (benchmark process)."""
    from repro.core.shortflow import Csa00LatencyModel
    from repro.experiments import registry, runner
    from repro.experiments.spec import ExperimentPoint, ExperimentSpec
    from repro.experiments.store import ResultStore
    from repro.simulator.engine import Simulator

    tracer.wrap(runner, "execute_point", "experiments.runner.execute_point",
                root=True)
    tracer.wrap(ExperimentSpec, "expand", "experiments.runner.expand")
    tracer.wrap(ExperimentPoint, "key", "experiments.runner.key")
    tracer.wrap(ResultStore, "__init__", "experiments.store.jsonl_open",
                annotate=lambda result, args, kwargs: {"records": len(args[0])})
    tracer.wrap(ResultStore, "put", "experiments.store.jsonl_put")
    tracer.wrap(ResultStore, "get_ok", "experiments.store.jsonl_get",
                annotate=lambda result, args, kwargs: {"hit": result is not None})
    # The registry binds the facade under private aliases at import time,
    # so that is where the runners look ``simulate`` up.
    _wrap_api(tracer, registry, "_simulate_point", "_simulate_batch")
    tracer.wrap(Simulator, "run", "simulator.run")
    tracer.wrap(Csa00LatencyModel, "components", "core.shortflow.model")


def install_flowsim(tracer: Tracer) -> None:
    """Layer boundaries of the flow-level simulator (benchmark process)."""
    from repro.flowsim.core import FlowSimCore
    from repro.flowsim.run import FlowSimulation

    tracer.wrap(FlowSimCore, "schedule_at", "flowsim.core.schedule")
    tracer.wrap(FlowSimCore, "run", "flowsim.core.run")
    tracer.wrap(FlowSimulation, "open_flow", "flowsim.run.open")
    tracer.wrap(FlowSimulation, "close_flow", "flowsim.run.close")
    # The tick is the periodic callback; it is bound when the run starts.
    tracer.wrap(FlowSimulation, "_tick", "flowsim.run.tick")


def _wrap_api(tracer: Tracer, owner: Any, simulate: str, batch: str) -> None:
    tracer.wrap(owner, simulate, "api.simulate",
                annotate=lambda result, args, kwargs: {"events": result.num_events})
    tracer.wrap(owner, batch, "api.simulate_batch",
                annotate=lambda result, args, kwargs: {"rows": len(result.results)})


# ----------------------------------------------------------------------
# Span analysis
# ----------------------------------------------------------------------
def layer_of(name: str) -> str:
    return name.rsplit(".", 1)[0]


def duration(span: tuple) -> float:
    return span[END] - span[START]


def attr(span: tuple, key: str, default: Any = None) -> Any:
    return default if span[ATTRS] is None else span[ATTRS].get(key, default)


def adopt(spans: List[tuple], children: Iterable[str],
          parents: Iterable[str]) -> List[tuple]:
    """Link orphan ``children`` spans to the innermost containing parent.

    Executor threads do not inherit the caller's context, so a kernel
    call made on behalf of a request arrives without a parent; the
    containing request span is its caller whenever requests that compute
    do not overlap (one connection sends all fresh work, in a closed
    loop).
    """
    children, parents = set(children), set(parents)
    hosts = [span for span in spans if span[NAME] in parents]
    linked = []
    for span in spans:
        if span[NAME] in children and span[PARENT] is None:
            around = [
                host for host in hosts
                if host[START] <= span[START] and span[END] <= host[END]
            ]
            if around:
                host = min(around, key=duration)
                span = span[:PARENT] + (host[ID], host[REQUEST]) + span[THREAD:]
        linked.append(span)
    return linked


def _covered(intervals: List[tuple], start: float, end: float) -> float:
    total, cursor = 0.0, start
    for low, high in sorted(intervals):
        low, high = max(low, cursor), min(high, end)
        if high > low:
            total += high - low
            cursor = high
    return total


def self_times(spans: Sequence[tuple]) -> Dict[int, float]:
    """Span id -> duration minus the part its child spans cover."""
    children: Dict[int, List[tuple]] = defaultdict(list)
    for span in spans:
        if span[PARENT] is not None:
            children[span[PARENT]].append((span[START], span[END]))
    return {
        span[ID]: duration(span) - _covered(
            children.get(span[ID], []), span[START], span[END]
        )
        for span in spans
    }


class SpanView:
    """Query helpers over one pass's spans."""

    def __init__(self, spans: Sequence[tuple]) -> None:
        self.spans = list(spans)
        self.self_time = self_times(self.spans)
        self.by_name: Dict[str, List[tuple]] = defaultdict(list)
        for span in self.spans:
            self.by_name[span[NAME]].append(span)

    def named(self, name: str, **attrs: Any) -> List[tuple]:
        return [
            span for span in self.by_name.get(name, [])
            if all(attr(span, key) == value for key, value in attrs.items())
        ]

    def median_us(self, name: str, **attrs: Any) -> Optional[float]:
        spans = self.named(name, **attrs)
        return median([duration(s) for s in spans]) * 1e6 if spans else None

    def median_ms(self, name: str, **attrs: Any) -> Optional[float]:
        value = self.median_us(name, **attrs)
        return None if value is None else value / 1e3

    def total_s(self, name: str) -> float:
        return sum(duration(span) for span in self.by_name.get(name, []))

    def layer_self_ms(self) -> Dict[str, float]:
        totals: Dict[str, float] = defaultdict(float)
        for span in self.spans:
            totals[layer_of(span[NAME])] += self.self_time[span[ID]]
        return {layer: seconds * 1e3 for layer, seconds in totals.items()}


#: The layers whose self time a traced run reports.
LAYERS = (
    "service.http",
    "service.core",
    "service.workers",
    "experiments.store",
    "experiments.runner",
    "api",
    "simulator",
    "core.shortflow",
    "flowsim.core",
    "flowsim.run",
)


def self_metrics(view: SpanView) -> Dict[str, Optional[float]]:
    """``<layer>.self_ms`` for every layer with spans in this view."""
    totals = view.layer_self_ms()
    return {f"{layer}.self_ms": totals.get(layer) for layer in LAYERS}


def api_metrics(view: SpanView) -> Dict[str, Optional[float]]:
    """Call counts and unit costs of the ``repro.api`` facade."""
    sims = view.named("api.simulate")
    batches = view.named("api.simulate_batch")
    events = sum(attr(span, "events", 0) for span in sims)
    rows = sum(attr(span, "rows", 0) for span in batches)
    return {
        "api.simulate.calls": len(sims) if sims else None,
        "api.simulate.us_per_event": (
            view.total_s("api.simulate") / events * 1e6 if events else None
        ),
        "api.simulate_batch.rows": rows if batches else None,
        "api.simulate_batch.us_per_row": (
            view.total_s("api.simulate_batch") / rows * 1e6 if rows else None
        ),
    }


class InProcess:
    """Trace a block of in-process work: wrappers plus telemetry counters.

    ``install`` is one of the ``install_*`` functions above; on exit the
    wrappers are removed and the spans and counters land on ``out``.
    """

    def __init__(self, out: Any, install: Callable[[Tracer], None]) -> None:
        self.out = out
        self.install = install
        self.tracer = Tracer()

    def __enter__(self) -> Tracer:
        from repro import telemetry

        self.install(self.tracer)
        telemetry.enable(fresh=True)
        return self.tracer

    def __exit__(self, *exc) -> bool:
        from repro import telemetry

        self.tracer.uninstall()
        self.out.counters = telemetry.get_registry().snapshot()["counters"]
        telemetry.disable()
        telemetry.reset()
        self.out.spans = self.tracer.spans
        return False

"""The ``service`` workload: ``repro.cli serve`` driven over real HTTP.

The server runs in its own process (``python -m repro.cli serve --port
0``, or ``serve_traced.py`` with the layer wrappers for a traced pass).
One asyncio client drives it over two keep-alive HTTP/1.1 connections
as a closed loop -- each connection waits for its reply before sending
the next request:

``warm``
    the hot set (``hot_points`` cheap (formula, p, cv, L) points, well
    inside the default 4096-entry LRU) is computed once;
``hot``
    both connections send hits on the hot set -- HTTP parsing, the
    canonical key and the memo, with the kernel idle.  Client and server
    share one CPU during this phase (:class:`Pinning`);
``mixed``
    one connection sends fresh ``/predict`` points (``fresh_events``
    events, distinct keys) alternating with fresh ``/predict/batch``
    grids (``share_noise=false``, so the service shards them across its
    two workers); the other keeps sending hot hits beside the kernel,
    pausing ``MIXED_THINK_S`` after each reply.

A timed run alternates hot and mixed phases in cycles of about
``CYCLE_SECONDS``; a fixed-work pass (traced runs, probes) makes one
cycle of ``FULL_PLAN`` or ``PROBE_PLAN`` requests.

Output checks: every response's ``cache`` field matches the schedule,
every hit returns the value its warm-up computed, sampled results are
bit-equal to direct ``repro.api`` calls on the same payload, and the
final ``/stats`` counters equal what was sent.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import math
import os
import random
import selectors
import signal
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

import bench_trace
from bench_stats import Outcome, median, same_json, spec_hash, tail

FORMULAS = ("sqrt", "pftk-simplified", "pftk-standard")
HISTORY_LENGTHS = (1, 2, 4, 8, 16)
HOT_EVENTS = 200
BATCH_POINTS = 8
#: A timed run alternates hot and mixed phases in cycles of about this
#: length, so that both see the same host conditions; ``HOT_SHARE`` of
#: each cycle is hot.
CYCLE_SECONDS = 4.0
HOT_SHARE = 0.35
SETUP_REPEATS = 5
#: Pause after each reply on the hit connection of *mixed*, an agent's own
#: iteration between queries.  Without it the hit rate follows the
#: cross-CPU wake-up latency, and with the hit rate the GIL contention a
#: miss meets: miss latency then swung by a fifth between runs.
MIXED_THINK_S = 0.005

#: Fixed work of a traced pass, and of a probe of the service layers
#: from another workload's traced run.
FULL_PLAN = {"hot_points": 64, "fresh_events": 20_000, "hot_per_conn": 750,
             "fresh_pairs": 3, "mixed_hits": 1000}
PROBE_PLAN = {"hot_points": 8, "fresh_events": 2_000, "hot_per_conn": 40,
              "fresh_pairs": 1, "mixed_hits": 40}


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def _point(rng: random.Random, events: int, seed: int) -> Dict[str, Any]:
    return {
        "formula": rng.choice(FORMULAS),
        "loss_event_rate": round(rng.uniform(0.01, 0.3), 6),
        "coefficient_of_variation": round(rng.uniform(0.2, 0.95), 4),
        "history_length": rng.choice(HISTORY_LENGTHS),
        "num_events": events,
        "seed": seed,
    }


class Inputs:
    """Requests generated from the workload seed; keys never repeat."""

    def __init__(self, seed: int, plan: Dict[str, int]) -> None:
        self.seed = seed
        self.events = plan["fresh_events"]
        rng = random.Random(f"{seed}/hot")
        self.hot = [_point(rng, HOT_EVENTS, index)
                    for index in range(plan["hot_points"])]
        self.hot_bodies = [json.dumps(point).encode() for point in self.hot]

    def fresh(self, index: int) -> Dict[str, Any]:
        rng = random.Random(f"{self.seed}/fresh/{index}")
        return _point(rng, self.events, 1_000_000 + index)

    def batch(self, index: int) -> Dict[str, Any]:
        rng = random.Random(f"{self.seed}/batch/{index}")
        return {
            "formulas": [rng.choice(FORMULAS)],
            "history_lengths": [rng.choice(HISTORY_LENGTHS)],
            "loss_event_rates": sorted(
                round(rng.uniform(0.01, 0.3), 6) for _ in range(BATCH_POINTS)
            ),
            "coefficients_of_variation": [round(rng.uniform(0.2, 0.95), 4)],
            "num_events": self.events,
            "seed": 2_000_000 + index,
            "share_noise": False,
        }


# ----------------------------------------------------------------------
# The server process
# ----------------------------------------------------------------------
class Server:
    """One ``repro.cli serve`` process on an ephemeral port."""

    def __init__(self, ctx, traced: bool, label: str) -> None:
        self.ctx = ctx
        self.trace_path = ctx.work / f"{label}.server-trace.json" if traced else None
        self.log_path = ctx.work / f"{label}.server.log"
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0

    def start(self) -> float:
        """Start the server; seconds from spawn to the first /healthz 200."""
        serve = ["serve", "--host", "127.0.0.1", "--port", "0"]
        if self.trace_path is not None:
            command = [sys.executable, str(self.ctx.bench / "serve_traced.py"),
                       str(self.trace_path), *serve, "--telemetry"]
        else:
            command = [sys.executable, "-m", "repro.cli", *serve]
        started = time.perf_counter()
        with open(self.log_path, "ab") as log:
            self.proc = subprocess.Popen(
                command, cwd=self.ctx.root, env=self.ctx.env,
                stdout=subprocess.PIPE, stderr=log, stdin=subprocess.DEVNULL,
            )
        deadline = time.monotonic() + 60.0
        self.port = self._read_port(deadline)
        while True:
            connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=10)
            try:
                connection.request("GET", "/healthz")
                if connection.getresponse().status == 200:
                    break
            except OSError:
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.01)
            finally:
                connection.close()
        return time.perf_counter() - started

    def _read_port(self, deadline: float) -> int:
        selector = selectors.DefaultSelector()
        selector.register(self.proc.stdout, selectors.EVENT_READ)
        try:
            while time.monotonic() < deadline:
                if not selector.select(timeout=deadline - time.monotonic()):
                    continue
                line = self.proc.stdout.readline().decode("utf-8", "replace")
                if not line:
                    break
                if "listening on http://" in line:
                    return int(line.strip().rsplit(":", 1)[1])
        finally:
            selector.close()
        raise RuntimeError(f"server did not start; see {self.log_path.name}")

    def stop(self) -> None:
        """Interrupt the server (as Ctrl-C would) and wait for it to exit."""
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.proc = None

    def trace(self) -> Dict[str, Any]:
        with open(self.trace_path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
        data["spans"] = [tuple(span) for span in data["spans"]]
        return data


class Pinning:
    """Move the client and every server thread onto one CPU, and back.

    Hot phases run pinned: a closed-loop hit then costs the client, the
    server and the loopback hop, without the cross-CPU wake-up whose
    latency swings with the host (several-fold under nested
    virtualisation).  Mixed phases run on every CPU, so the kernel
    threads run beside the event loop as they do in service.
    """

    def __init__(self, pid: int) -> None:
        self.pid = pid
        self.cpus = (
            os.sched_getaffinity(0) if hasattr(os, "sched_setaffinity") else None
        )

    def __call__(self, pinned: bool) -> None:
        if self.cpus is None:
            return
        cpus = {min(self.cpus)} if pinned else self.cpus
        os.sched_setaffinity(0, cpus)
        for tid in os.listdir(f"/proc/{self.pid}/task"):
            try:
                os.sched_setaffinity(int(tid), cpus)
            except OSError:
                pass  # the thread exited meanwhile


# ----------------------------------------------------------------------
# The client
# ----------------------------------------------------------------------
class Connection:
    """One keep-alive HTTP/1.1 client connection."""

    def __init__(self, port: int) -> None:
        self.port = port
        self.reader: Optional[asyncio.StreamReader] = None
        self.writer: Optional[asyncio.StreamWriter] = None

    async def open(self) -> None:
        self.reader, self.writer = await asyncio.open_connection(
            "127.0.0.1", self.port, limit=1 << 20
        )

    async def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except OSError:
                pass

    async def request(self, method: str, path: str, body: bytes = b""):
        """``(status, payload, seconds)``; a failure is ``(None, None, inf)``."""
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
        ).encode("ascii")
        started = time.perf_counter()
        try:
            self.writer.write(head + body)
            await self.writer.drain()
            status_line = await self.reader.readuntil(b"\r\n")
            length = 0
            while True:
                line = await self.reader.readuntil(b"\r\n")
                if line == b"\r\n":
                    break
                name, _, value = line.partition(b":")
                if name.strip().lower() == b"content-length":
                    length = int(value)
            raw = await self.reader.readexactly(length)
            seconds = time.perf_counter() - started
            return int(status_line.split()[1]), json.loads(raw), seconds
        except (OSError, asyncio.IncompleteReadError, asyncio.LimitOverrunError,
                ValueError):
            await self.close()
            await self.open()
            return None, None, math.inf


class Client:
    """The closed-loop schedule and its bookkeeping."""

    def __init__(self, port: int, inputs: Inputs, out: Outcome) -> None:
        self.port = port
        self.inputs = inputs
        self.out = out
        self.warm: List[Any] = []
        self.latency: Dict[str, List[float]] = {
            "hot": [], "mixed-hit": [], "miss": [], "batch-miss": []
        }
        self.sent = {"predict": 0, "batch": 0}
        self.fresh_results: List[tuple] = []
        self.fresh_index = 0

    def _answer(self, phase: str, status, payload, cache: str) -> bool:
        ok = status == 200
        self.out.accounting.record(phase, ok)
        if ok:
            self.out.checks.expect(
                payload.get("cache") == cache,
                f"{phase}: cache {payload.get('cache')!r}, expected {cache!r}",
            )
        return ok

    async def hot_loop(self, conn: Connection, rng: random.Random, phase: str,
                       samples: List[float], limit: int, until: float,
                       stop: Optional[asyncio.Event] = None,
                       think: float = 0.0) -> None:
        count = 0
        bodies = self.inputs.hot_bodies
        while count < limit and time.perf_counter() < until:
            if stop is not None and stop.is_set():
                break
            index = rng.randrange(len(bodies))
            status, payload, seconds = await conn.request(
                "POST", "/predict", bodies[index]
            )
            self.sent["predict"] += 1
            samples.append(seconds)
            if self._answer(phase, status, payload, "hit"):
                self.out.checks.expect(
                    payload.get("result") == self.warm[index],
                    f"{phase}: hit on hot point {index} changed its value",
                )
            count += 1
            if think:
                await asyncio.sleep(think)

    async def fresh_loop(self, conn: Connection, limit: int, until: float,
                         done: asyncio.Event) -> None:
        sent = 0
        try:
            while sent < limit and time.perf_counter() < until:
                index = self.fresh_index
                self.fresh_index += 1
                sent += 1
                point = self.inputs.fresh(index)
                status, payload, seconds = await conn.request(
                    "POST", "/predict", json.dumps(point).encode()
                )
                self.sent["predict"] += 1
                self.latency["miss"].append(seconds)
                if self._answer("mixed-fresh", status, payload, "miss"):
                    self.fresh_results.append(("single", point, payload["result"]))
                grid = self.inputs.batch(index)
                status, payload, seconds = await conn.request(
                    "POST", "/predict/batch", json.dumps(grid).encode()
                )
                self.sent["batch"] += 1
                self.latency["batch-miss"].append(seconds)
                if self._answer("mixed-batch", status, payload, "miss"):
                    self.out.checks.expect(
                        payload.get("num_results") == BATCH_POINTS,
                        "batch: wrong number of results",
                    )
                    self.fresh_results.append(("batch", grid, payload["results"]))
        finally:
            done.set()

    async def run(self, plan: Dict[str, int], seconds: Optional[float],
                  pin: "Pinning", speed) -> None:
        """Warm up, then hot/mixed cycles: fixed work, or ``seconds`` long
        with ``speed`` (a ``calibrate.HostSpeed``) sampled before each."""
        seed = self.inputs.seed
        first, second = Connection(self.port), Connection(self.port)
        await first.open()
        await second.open()
        rngs = [random.Random(f"{seed}/{name}") for name in "abc"]
        self.walls = [0.0, 0.0]
        try:
            for index, body in enumerate(self.inputs.hot_bodies):
                status, payload, _ = await first.request("POST", "/predict", body)
                self.sent["predict"] += 1
                ok = self._answer("warm", status, payload, "miss")
                self.warm.append(payload["result"] if ok else None)
            if seconds is None:
                await self._cycle(first, second, rngs, pin, plan["hot_per_conn"],
                                  math.inf, plan["fresh_pairs"],
                                  plan["mixed_hits"], math.inf)
            else:
                cycles = max(1, round(seconds / CYCLE_SECONDS))
                for _ in range(cycles):
                    speed.sample(2)
                    await self._cycle(first, second, rngs, pin, math.inf,
                                      seconds / cycles * HOT_SHARE, math.inf,
                                      math.inf, seconds / cycles * (1 - HOT_SHARE))
            status, stats, _ = await first.request("GET", "/stats")
            self._check_stats(status, stats)
        finally:
            await first.close()
            await second.close()

    async def _cycle(self, first: Connection, second: Connection, rngs, pin,
                     hot_limit, hot_seconds, fresh_limit, hit_limit,
                     mixed_seconds) -> None:
        """One hot phase (on one CPU) and one mixed phase (on all CPUs)."""
        pin(True)
        try:
            started = time.perf_counter()
            until = started + hot_seconds
            await asyncio.gather(
                self.hot_loop(first, rngs[0], "hot", self.latency["hot"],
                              hot_limit, until),
                self.hot_loop(second, rngs[1], "hot", self.latency["hot"],
                              hot_limit, until),
            )
            self.walls[0] += time.perf_counter() - started
        finally:
            pin(False)
        done = asyncio.Event()
        started = time.perf_counter()
        await asyncio.gather(
            self.fresh_loop(first, fresh_limit, started + mixed_seconds, done),
            self.hot_loop(second, rngs[2], "mixed-hit", self.latency["mixed-hit"],
                          hit_limit, math.inf,
                          stop=done if hit_limit == math.inf else None,
                          think=MIXED_THINK_S),
        )
        self.walls[1] += time.perf_counter() - started

    def _check_stats(self, status, stats) -> None:
        checks = self.out.checks
        if status != 200:
            checks.fail("/stats did not answer 200")
            return
        hits = len(self.latency["hot"]) + len(self.latency["mixed-hit"])
        fresh = len(self.latency["miss"])
        batches = len(self.latency["batch-miss"])
        hot = len(self.inputs.hot)
        expected = {
            "requests.predict": self.sent["predict"],
            "requests.batch": self.sent["batch"],
            "requests.bad": 0,
            "computes.predict": hot + fresh,
            "computes.batch": batches,
            "coalesced": 0,
            "cache.hits": hits,
            "cache.misses": hot + fresh + batches,
        }
        for path, value in expected.items():
            node = stats
            for part in path.split("."):
                node = node[part]
            checks.expect(node == value, f"/stats {path} = {node}, expected {value}")


# ----------------------------------------------------------------------
# Passes
# ----------------------------------------------------------------------
def _direct_checks(client: Client, out: Outcome) -> None:
    """Sampled responses must be bit-equal to direct ``repro.api`` calls."""
    from repro import api

    rng = random.Random(f"{client.inputs.seed}/sample")
    samples = [("hot", client.inputs.hot[0], client.warm[0])]
    for kind in ("single", "batch"):
        chosen = [entry for entry in client.fresh_results if entry[0] == kind]
        if chosen:
            samples.append(rng.choice(chosen))
        else:
            out.checks.fail(f"no successful fresh {kind} response to sample")
    for kind, payload, answer in samples:
        if kind == "batch":
            direct = [r.to_dict() for r in api.simulate_batch(payload).results]
        else:
            direct = api.simulate(payload).to_dict()
        out.checks.expect(same_json(direct, answer),
                          f"{kind} response differs from direct repro.api")


def _run(ctx, plan, seconds: Optional[float], traced: bool, label: str,
         setup_repeats: int, direct: bool) -> Outcome:
    out = Outcome()
    inputs = Inputs(ctx.seed, plan)
    out.hashes["service.hot"] = spec_hash(inputs.hot)
    out.hashes["service.fresh0"] = spec_hash([inputs.fresh(0), inputs.batch(0)])
    setups = []
    for attempt in range(setup_repeats):
        server = Server(ctx, traced, f"{label}-{attempt}")
        try:
            setups.append(server.start())
        finally:
            if attempt < setup_repeats - 1:
                server.stop()
    try:
        client = Client(server.port, inputs, out)
        asyncio.run(client.run(plan, seconds, Pinning(server.proc.pid),
                               ctx.speed))
    finally:
        server.stop()
    if traced:
        trace = server.trace()
        out.spans = trace["spans"]
        out.counters = trace["counters"]
    if direct:
        _direct_checks(client, out)
    _summarise(out, client, setups)
    return out


def _summarise(out: Outcome, client: Client, setups: List[float]) -> None:
    hot_wall, mixed_wall = client.walls
    latency = client.latency
    out.wall = hot_wall + mixed_wall
    ms = 1e3
    fallback = out.wall
    out.timing("setup_s", setups, 1.0, "s", fallback)
    hit_p50 = out.timing("hit_p50_ms", latency["hot"], ms, "ms", fallback)
    hit_tail = tail(latency["hot"], highest=99.0)
    out.named["hit_p99_ms"] = (
        min(hit_tail["value"], fallback) * ms, "ms",
        f"p{hit_tail['q']:g} of {hit_tail['n']}",
    )
    hits_ok = sum(1 for s in latency["hot"] if math.isfinite(s))
    hit_rps = hits_ok / hot_wall if hot_wall > 0 else 0.0
    out.named["hit_rps"] = (hit_rps, "1/s", f"{hits_ok} hits in {hot_wall:.2f} s")
    miss_p50 = out.timing("miss_p50_ms", latency["miss"], ms, "ms", fallback)
    out.timing("batch_miss_p50_ms", latency["batch-miss"], ms, "ms", fallback)
    out.timing("mixed_hit_p50_ms", latency["mixed-hit"], ms, "ms", fallback)
    fresh_ok = sum(
        1 for s in latency["miss"] + latency["batch-miss"] if math.isfinite(s)
    )
    fresh_rps = fresh_ok / mixed_wall if mixed_wall > 0 else 0.0
    out.named["fresh_rps"] = (fresh_rps, "1/s", f"{fresh_ok} fresh requests")
    out.e2e = {
        "setup_s": out.named["setup_s"][0],
        "fast_ms": hit_p50,
        "fast_per_s": hit_rps,
        "slow_ms": miss_p50,
        "slow_per_s": fresh_rps,
    }
    # Pinned to one CPU, hot hits follow wake-up latency, not the compute
    # speed the calibration kernel tracks: between two sets of runs whose
    # host speed differed by a tenth, their median held as measured and
    # moved by a tenth at the reference speed.
    out.raw |= {"fast_ms", "fast_per_s"}
    out.extras["client_hit_p50_ms"] = hit_p50
    out.extras["digest"] = spec_hash(
        [client.warm, [entry[2] for entry in client.fresh_results]]
    )


def measure(ctx) -> Outcome:
    """Time-budgeted run: ``ctx.seconds`` split between hot and mixed."""
    return _run(ctx, FULL_PLAN, ctx.seconds, traced=False, label="measure",
                setup_repeats=SETUP_REPEATS, direct=True)


def fixed(ctx, traced: bool, probe: bool = False, label: str = "pass") -> Outcome:
    """Fixed-work pass (traced runs and probes)."""
    plan = PROBE_PLAN if probe else FULL_PLAN
    return _run(ctx, plan, None, traced=traced, label=label, setup_repeats=1,
                direct=not traced)


def layer_metrics(out: Outcome) -> Dict[str, Optional[float]]:
    """The service layers' per-layer metrics from a traced pass."""
    spans = bench_trace.adopt(
        out.spans, ("api.simulate", "api.simulate_batch"),
        ("service.core.predict", "service.core.predict_batch"),
    )
    view = bench_trace.SpanView(spans)
    predict_hit = view.median_us("service.core.predict", cache="hit")
    kernel_by_parent: Dict[int, float] = {}
    for name in ("api.simulate", "api.simulate_batch"):
        for span in view.named(name):
            parent = span[bench_trace.PARENT]
            if parent is not None:
                kernel_by_parent[parent] = kernel_by_parent.get(parent, 0.0) + \
                    bench_trace.duration(span)
    waits = [
        bench_trace.duration(span) - kernel_by_parent.get(span[bench_trace.ID], 0.0)
        for span in view.named("service.core.predict", cache="miss")
    ]
    predicts = view.named("service.core.predict")
    plans = view.named("service.workers.plan")
    gets = view.named("experiments.store.memo_get")
    return {
        "service.http.overhead_ms": (
            None if predict_hit is None
            else out.extras["client_hit_p50_ms"] - predict_hit / 1e3
        ),
        "service.core.key_us": view.median_us("service.core.key"),
        "service.core.predict_self_us": (
            median([view.self_time[s[bench_trace.ID]] for s in predicts]) * 1e6
            if predicts else None
        ),
        "service.core.compute_wait_ms": median(waits) * 1e3 if waits else None,
        "service.workers.shards": (
            sum(bench_trace.attr(s, "shards", 0) for s in plans) / len(plans)
            if plans else None
        ),
        "service.workers.merge_ms": view.median_ms("service.workers.merge"),
        "experiments.store.memo_get_us": view.median_us("experiments.store.memo_get"),
        "experiments.store.memo_put_us": view.median_us("experiments.store.memo_put"),
        "experiments.store.memo_hit_ratio": (
            sum(1 for s in gets if bench_trace.attr(s, "hit")) / len(gets)
            if gets else None
        ),
        **bench_trace.api_metrics(view),
        **bench_trace.self_metrics(view),
    }


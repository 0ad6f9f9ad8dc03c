"""Summary statistics and small helpers shared by the perfbench workloads."""

from __future__ import annotations

import hashlib
import json
import math
import statistics
from typing import Any, Dict, List, Sequence

#: Percentiles tried for a tail figure, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)
#: A tail percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile; failed samples are ``math.inf``."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(samples: Sequence[float]) -> float:
    return statistics.median(samples)


def tail(samples: Sequence[float], highest: float = 99.9) -> Dict[str, Any]:
    """The highest percentile, up to ``highest``, with at least
    ``MIN_BEYOND`` samples beyond it."""
    count = len(samples)
    for q in (q for q in TAIL_PERCENTILES if q <= highest):
        if count * (1.0 - q / 100.0) >= MIN_BEYOND:
            return {"q": q, "value": percentile(samples, q), "n": count}
    return {"q": 50.0, "value": percentile(samples, 50.0), "n": count}


def json_safe(value: Any) -> Any:
    """Map non-finite floats to None, the way the service serialises them."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: json_safe(entry) for key, entry in value.items()}
    if isinstance(value, (list, tuple)):
        return [json_safe(entry) for entry in value]
    return value


def same_json(left: Any, right: Any) -> bool:
    """Bit-equality of two JSON-shaped values (NaN and None compare equal)."""
    return (json.dumps(json_safe(left), sort_keys=True)
            == json.dumps(json_safe(right), sort_keys=True))


class Accounting:
    """Per-phase attempted / succeeded / failed counts."""

    def __init__(self) -> None:
        self.phases: Dict[str, Dict[str, int]] = {}

    def record(self, phase: str, ok: bool) -> None:
        counts = self.phases.setdefault(
            phase, {"attempted": 0, "succeeded": 0, "failed": 0}
        )
        counts["attempted"] += 1
        counts["succeeded" if ok else "failed"] += 1

    def merge(self, other: "Accounting") -> None:
        for phase, counts in other.phases.items():
            merged = self.phases.setdefault(
                phase, {"attempted": 0, "succeeded": 0, "failed": 0}
            )
            for key, value in counts.items():
                merged[key] += value

    @property
    def attempted(self) -> int:
        return sum(counts["attempted"] for counts in self.phases.values())

    @property
    def failed(self) -> int:
        return sum(counts["failed"] for counts in self.phases.values())

    @property
    def error_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


class Checks:
    """Output checks: every mismatch is counted, the first few are kept."""

    KEEP = 10

    def __init__(self) -> None:
        self.passed = 0
        self.failed = 0
        self.failures: List[str] = []

    def expect(self, condition: bool, message: str) -> None:
        if condition:
            self.passed += 1
        else:
            self.fail(message)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < self.KEEP:
            self.failures.append(message)

    def merge(self, other: "Checks") -> None:
        self.passed += other.passed
        for message in other.failures:
            self.fail(message)
        self.failed += other.failed - len(other.failures)

    @property
    def ok(self) -> bool:
        return self.failed == 0


def finite(value: float, fallback: float) -> float:
    """A reportable number: a failed sample's ``inf`` becomes ``fallback``."""
    return value if math.isfinite(value) else fallback


class Outcome:
    """What one pass of a workload produced.

    ``named`` holds the workload's own metrics as ``name -> (value, unit,
    note)``; ``e2e`` the gated end-to-end metrics, of which ``raw`` names
    those the calibration of ``calibrate`` leaves alone; ``spans`` and
    ``counters`` are filled by traced passes; ``extras`` carries
    measurements the per-layer metrics combine with spans.
    """

    def __init__(self) -> None:
        self.wall = 0.0
        self.named: Dict[str, tuple] = {}
        self.e2e: Dict[str, float] = {}
        #: End-to-end metrics reported as measured, not at the reference
        #: host speed: ``setup_s`` is start-up and imports in fresh
        #: processes, which the calibration kernel does not follow.
        self.raw = {"setup_s"}
        self.accounting = Accounting()
        self.checks = Checks()
        self.spans: List[tuple] = []
        self.counters: Dict[str, float] = {}
        self.extras: Dict[str, Any] = {}
        self.hashes: Dict[str, str] = {}

    def timing(self, name: str, samples: Sequence[float], unit_scale: float,
               unit: str, fallback: float) -> float:
        """Record the median of ``samples`` (seconds) under ``name``."""
        value = (finite(median(samples), fallback) if samples else fallback) \
            * unit_scale
        self.named[name] = (value, unit, f"median of {len(samples)}")
        return value


def spec_hash(payload: Any) -> str:
    """Short content hash of a generated input, for the run manifest."""
    text = json.dumps(json_safe(payload), sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]

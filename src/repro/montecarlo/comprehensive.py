"""Monte-Carlo evaluation of the comprehensive control.

Companion to :mod:`repro.montecarlo.basic` for the comprehensive control
(equation (4) of the paper).  Provides both a simulation path (the
vectorised kernel over a sampled interval sequence, checked against the
per-event :class:`~repro.core.control.ComprehensiveControl` loop as test
oracle) and an analytic path evaluating Proposition 3's exact throughput
expression by Monte-Carlo integration over independent estimator windows,
which is valid for i.i.d. loss processes with SQRT or PFTK-simplified
formulas.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..core.formulas import (
    LossThroughputFormula,
    PftkSimplifiedFormula,
    SqrtFormula,
)
from ..core.throughput import proposition3_correction
from ..lossprocess.base import LossProcess
from .basic import BasicControlResult, analytic_samples, resolve_weights
from .vectorized import sampled_control_summary
from .vectorized_analytic import analytic_window_estimates

__all__ = [
    "ComprehensiveControlResult",
    "simulate_comprehensive_control",
    "analytic_comprehensive_throughput",
]


@dataclass(frozen=True)
class ComprehensiveControlResult(BasicControlResult):
    """Summary of one Monte-Carlo run of the comprehensive control."""


def simulate_comprehensive_control(
    formula: LossThroughputFormula,
    loss_process: LossProcess,
    num_events: int = 50_000,
    weights: Optional[Sequence[float]] = None,
    history_length: Optional[int] = None,
    seed: Optional[int] = None,
) -> ComprehensiveControlResult:
    """Evaluate the comprehensive control over a sampled interval sequence."""
    summary = sampled_control_summary(
        formula, loss_process, num_events,
        resolve_weights(weights, history_length), seed, comprehensive=True,
    )
    return ComprehensiveControlResult(num_events=num_events, **summary)


def analytic_comprehensive_throughput(
    formula: LossThroughputFormula,
    loss_process: LossProcess,
    num_samples: int = 200_000,
    weights: Optional[Sequence[float]] = None,
    history_length: Optional[int] = None,
    seed: Optional[int] = None,
) -> float:
    """Evaluate Proposition 3 by Monte-Carlo integration.

    Draws, for each sample, a window of ``L`` past intervals plus the next
    interval ``theta_0``; forms ``theta_hat_0`` from the window and
    ``theta_hat_1`` by shifting ``theta_0`` into the window, then applies
    the exact correction ``V_0 1{theta_hat_1 > theta_hat_0}``.  Valid for
    i.i.d. loss processes and SQRT / PFTK-simplified formulas.
    """
    if not isinstance(formula, (SqrtFormula, PftkSimplifiedFormula)):
        raise TypeError(
            "Proposition 3's closed form requires SQRT or PFTK-simplified"
        )
    weights = np.asarray(resolve_weights(weights, history_length), dtype=float)
    window_draws, intervals = analytic_samples(
        loss_process, num_samples, weights.size, seed
    )
    estimates_now, estimates_next = analytic_window_estimates(
        window_draws, intervals, weights
    )
    rates = np.asarray(formula.rate_of_interval(estimates_now), dtype=float)
    corrections = proposition3_correction(
        formula, estimates_now, estimates_next, float(weights[0] / weights.sum())
    )
    mean_interval = float(np.mean(intervals))
    mean_duration = float(np.mean(intervals / rates - corrections))
    if mean_duration <= 0.0:
        raise ValueError("mean corrected duration is non-positive")
    return mean_interval / mean_duration

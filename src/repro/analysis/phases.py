"""Phased loss processes: when the covariance condition (C1) fails.

Theorem 1's conservativeness conclusion rests on the loss-event interval
estimator being a *bad predictor* of the next interval
(``cov[theta_0, theta_hat_0] <= 0``).  Section III-B.2 of the paper points
out a realistic situation where this fails: the loss process moves through
phases (congestion / no congestion) with slow transitions, the intervals
become highly predictable, and the send rate roughly follows the phases --
condition (C2c) of Theorem 2 can then hold together with the convexity of
``f(1/x)`` (PFTK under heavy loss), making the control non-conservative.

This module packages that study: drive the basic or comprehensive control
with a two-phase Markov-modulated loss process, report the covariance
diagnostics and the normalized throughput, and sweep the phase-switching
probability to show the transition from the Theorem 1 regime (fast
switching, near-i.i.d., conservative) to the predictable-phases regime.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..core.estimator import tfrc_weights
from ..core.formulas import LossThroughputFormula
from ..lossprocess.base import make_rng
from ..lossprocess.markov import two_phase_process
from ..montecarlo.vectorized import vectorized_control_trace
from ..palm.statistics import normalized_interval_covariance

__all__ = ["PhaseStudyPoint", "phase_study", "switching_sweep"]


@dataclass(frozen=True)
class PhaseStudyPoint:
    """Outcome of driving the control with one phased loss process.

    Attributes
    ----------
    switch_probability:
        Per-loss-event probability of changing phase.
    normalized_throughput:
        ``x_bar / f(p)`` of the run.
    normalized_covariance:
        ``cov[theta_0, theta_hat_0] p^2`` -- positive values mean the
        estimator predicts the next interval well (condition (C1) fails).
    rate_duration_covariance:
        ``cov[X_0, S_0]`` -- the Theorem 2 covariance.
    loss_event_rate:
        Empirical loss-event rate of the run.
    """

    switch_probability: float
    normalized_throughput: float
    normalized_covariance: float
    rate_duration_covariance: float
    loss_event_rate: float


def phase_study(
    formula: LossThroughputFormula,
    switch_probability: float,
    good_mean: float = 60.0,
    bad_mean: float = 4.0,
    history_length: int = 8,
    num_events: int = 40_000,
    comprehensive: bool = False,
    seed: Optional[int] = None,
) -> PhaseStudyPoint:
    """Drive the control with a two-phase loss process and summarise it.

    Parameters
    ----------
    formula:
        Loss-throughput formula of the control.
    switch_probability:
        Phase-change probability per loss event; small values produce long,
        predictable phases.
    good_mean, bad_mean:
        Mean loss-event interval (packets) in the good and congested phase.
    history_length:
        Estimator window ``L`` (TFRC weight profile).
    num_events:
        Loss events to simulate after estimator warm-up.
    comprehensive:
        Use the comprehensive control instead of the basic one.
    seed:
        Random seed.
    """
    if num_events < 100:
        raise ValueError("num_events must be at least 100")
    process = two_phase_process(
        good_mean=good_mean, bad_mean=bad_mean, switch_probability=switch_probability
    )
    rng = make_rng(seed)
    window = history_length
    intervals = process.sample_intervals(num_events + window, rng)
    trace = vectorized_control_trace(
        formula, intervals, tfrc_weights(history_length), comprehensive
    )
    return PhaseStudyPoint(
        switch_probability=float(switch_probability),
        normalized_throughput=trace.normalized_throughput(formula),
        normalized_covariance=normalized_interval_covariance(
            trace.intervals, trace.estimates
        ),
        rate_duration_covariance=trace.rate_duration_covariance(),
        loss_event_rate=trace.loss_event_rate,
    )


def switching_sweep(
    formula: LossThroughputFormula,
    switch_probabilities: Sequence[float] = (0.5, 0.2, 0.1, 0.05, 0.02, 0.01),
    good_mean: float = 60.0,
    bad_mean: float = 4.0,
    history_length: int = 8,
    num_events: int = 40_000,
    comprehensive: bool = False,
    seed: Optional[int] = 23,
) -> List[PhaseStudyPoint]:
    """Sweep the phase-switching probability from fast to slow phases.

    Fast switching approximates i.i.d. intervals (Theorem 1 regime); slow
    switching produces predictable phases where the normalised covariance
    turns positive and -- depending on the convexity of the formula in the
    visited region -- the control may cease to be conservative.
    """
    points = []
    for index, probability in enumerate(switch_probabilities):
        point_seed = None if seed is None else seed + index
        points.append(
            phase_study(
                formula,
                probability,
                good_mean=good_mean,
                bad_mean=bad_mean,
                history_length=history_length,
                num_events=num_events,
                comprehensive=comprehensive,
                seed=point_seed,
            )
        )
    return points

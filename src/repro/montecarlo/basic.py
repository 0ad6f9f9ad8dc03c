"""Monte-Carlo evaluation of the basic control ("numerical experiments").

Section V-A.1 of the paper validates Claim 1 with designed numerical
experiments: the loss-event intervals are drawn i.i.d. from a shifted
exponential, the basic control is run over them, and the normalized
throughput ``x_bar / f(p)`` is reported as a function of ``p`` (Figure 3)
and of the coefficient of variation ``cv[theta_0]`` (Figure 4), for
estimator window lengths ``L in {1, 2, 4, 8, 16}``.

Two evaluation paths are provided:

* :func:`simulate_basic_control` -- the vectorised kernel over a sampled
  interval sequence (the same call as :func:`repro.api.simulate`; the
  per-event :class:`~repro.core.control.BasicControl` loop is its oracle);
* :func:`analytic_basic_throughput` -- evaluate Proposition 1's expectation
  directly by Monte-Carlo integration over independent draws of the
  estimator window, which converges faster because it does not carry the
  sequential dependence of the moving average.

For i.i.d. intervals both estimates converge to the same value; the tests
assert their agreement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from ..core.estimator import tfrc_weights
from ..core.formulas import LossThroughputFormula
from ..lossprocess.base import LossProcess, make_rng
from .vectorized import sampled_control_summary

__all__ = [
    "BasicControlResult",
    "simulate_basic_control",
    "analytic_basic_throughput",
]


@dataclass(frozen=True)
class BasicControlResult:
    """Summary of one Monte-Carlo run of the basic control.

    Attributes
    ----------
    throughput:
        Long-run throughput in packets per second.
    normalized_throughput:
        ``throughput / f(p)`` with ``p`` the empirical loss-event rate.
    loss_event_rate:
        The empirical loss-event rate ``1 / mean(theta)``.
    interval_estimate_covariance:
        Empirical ``cov[theta_0, theta_hat_0]``.
    estimator_cv:
        Coefficient of variation of the estimator values (Claim 1's
        "variability of theta_hat").
    num_events:
        Number of loss events contributing to the estimate.
    """

    throughput: float
    normalized_throughput: float
    loss_event_rate: float
    interval_estimate_covariance: float
    estimator_cv: float
    num_events: int


def resolve_weights(
    weights: Optional[Sequence[float]], history_length: Optional[int]
) -> Sequence[float]:
    """The given estimator weights, or the TFRC profile of ``history_length``
    (default 8); passing both is an error."""
    if weights is None:
        return tfrc_weights(history_length if history_length is not None else 8)
    if history_length is not None:
        raise ValueError("pass either weights or history_length, not both")
    return weights


def analytic_samples(
    loss_process: LossProcess, num_samples: int, window: int, seed: Optional[int]
) -> Tuple[np.ndarray, np.ndarray]:
    """The analytic paths' integration sample from one ``make_rng(seed)``
    stream: ``(num_samples, window)`` estimator windows drawn first, then
    ``num_samples`` next intervals ``theta_0``."""
    if num_samples < 100:
        raise ValueError("num_samples must be at least 100")
    rng = make_rng(seed)
    draws = loss_process.sample_intervals(num_samples * window, rng)
    return (draws.reshape(num_samples, window),
            loss_process.sample_intervals(num_samples, rng))


def simulate_basic_control(
    formula: LossThroughputFormula,
    loss_process: LossProcess,
    num_events: int = 50_000,
    weights: Optional[Sequence[float]] = None,
    history_length: Optional[int] = None,
    seed: Optional[int] = None,
) -> BasicControlResult:
    """Evaluate the basic control over a sampled loss-event interval sequence.

    Parameters
    ----------
    formula:
        The loss-throughput formula ``f``.
    loss_process:
        Source of the loss-event intervals.
    num_events:
        Number of loss events to simulate (after estimator warm-up).
    weights:
        Estimator weights; if omitted, the TFRC profile with
        ``history_length`` (default 8) is used.
    history_length:
        Convenience alternative to ``weights``: the TFRC profile of this
        length.
    seed:
        Random seed for reproducibility.
    """
    summary = sampled_control_summary(
        formula, loss_process, num_events,
        resolve_weights(weights, history_length), seed,
    )
    return BasicControlResult(num_events=num_events, **summary)


def analytic_basic_throughput(
    formula: LossThroughputFormula,
    loss_process: LossProcess,
    num_samples: int = 200_000,
    weights: Optional[Sequence[float]] = None,
    history_length: Optional[int] = None,
    seed: Optional[int] = None,
) -> float:
    """Evaluate Proposition 1 by direct Monte-Carlo integration.

    For an i.i.d. loss process the estimator window
    ``(theta_{n-1}, ..., theta_{n-L})`` is independent of ``theta_n``, so
    the expectation ``E[theta_0 / f(1/theta_hat_0)]`` factorises and can be
    estimated from independent draws of windows and intervals.  Returns the
    normalized throughput denominator's reciprocal, i.e. ``E[X(0)]``.
    """
    weight_array = np.asarray(resolve_weights(weights, history_length), dtype=float)
    weight_array = weight_array / weight_array.sum()
    window_draws, intervals = analytic_samples(
        loss_process, num_samples, weight_array.size, seed
    )
    estimates = window_draws @ weight_array
    rates = np.asarray(formula.rate_of_interval(estimates), dtype=float)
    mean_interval = float(np.mean(intervals))
    mean_duration = float(np.mean(intervals / rates))
    return mean_interval / mean_duration

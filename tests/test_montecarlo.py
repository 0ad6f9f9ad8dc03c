"""Unit tests for the Monte-Carlo numerical experiments (Figures 3 and 4)."""

import tracemalloc

import numpy as np
import pytest

from repro import api
from repro.core.estimator import tfrc_weights
from repro.core.formulas import PftkSimplifiedFormula, SqrtFormula
from repro.lossprocess.base import make_rng
from repro.montecarlo import vectorized
from repro.lossprocess import DeterministicIntervals, ShiftedExponentialIntervals
from repro.montecarlo import (
    analytic_basic_throughput,
    analytic_comprehensive_throughput,
    simulate_basic_control,
    simulate_comprehensive_control,
    sweep_coefficient_of_variation,
    sweep_history_length,
    sweep_loss_event_rate,
)


class TestBasicControlMonteCarlo:
    def test_simulation_and_analytic_agree(self, pftk_simplified):
        """For i.i.d. intervals the sequential simulation and the direct
        Monte-Carlo evaluation of Proposition 1 converge to the same value."""
        process = ShiftedExponentialIntervals.from_loss_rate_and_cv(0.1, 0.999)
        simulated = simulate_basic_control(
            pftk_simplified, process, num_events=60_000, history_length=8, seed=1
        )
        analytic = analytic_basic_throughput(
            pftk_simplified, process, num_samples=200_000, history_length=8, seed=2
        )
        assert simulated.throughput == pytest.approx(analytic, rel=0.03)

    def test_deterministic_process_reaches_formula(self, pftk_simplified):
        process = DeterministicIntervals(25.0)
        result = simulate_basic_control(
            pftk_simplified, process, num_events=500, history_length=8, seed=3
        )
        assert result.normalized_throughput == pytest.approx(1.0, rel=1e-9)
        assert result.estimator_cv == pytest.approx(0.0, abs=1e-12)

    def test_loss_event_rate_matches_process(self, sqrt_formula):
        process = ShiftedExponentialIntervals.from_loss_rate_and_cv(0.05, 0.9)
        result = simulate_basic_control(
            sqrt_formula, process, num_events=50_000, history_length=4, seed=4
        )
        assert result.loss_event_rate == pytest.approx(0.05, rel=0.03)

    def test_weights_and_history_length_are_exclusive(self, sqrt_formula):
        process = DeterministicIntervals(10.0)
        with pytest.raises(ValueError):
            simulate_basic_control(
                sqrt_formula, process, num_events=100,
                weights=[0.5, 0.5], history_length=2,
            )

    def test_minimum_events_enforced(self, sqrt_formula):
        process = DeterministicIntervals(10.0)
        with pytest.raises(ValueError):
            simulate_basic_control(sqrt_formula, process, num_events=5)


class TestComprehensiveControlMonteCarlo:
    def test_comprehensive_above_basic(self, pftk_simplified):
        process = ShiftedExponentialIntervals.from_loss_rate_and_cv(0.1, 0.999)
        basic = simulate_basic_control(
            pftk_simplified, process, num_events=40_000, history_length=8, seed=5
        )
        comprehensive = simulate_comprehensive_control(
            pftk_simplified, process, num_events=40_000, history_length=8, seed=5
        )
        assert comprehensive.normalized_throughput > basic.normalized_throughput

    def test_analytic_comprehensive_close_to_simulation(self, pftk_simplified):
        process = ShiftedExponentialIntervals.from_loss_rate_and_cv(0.1, 0.999)
        simulated = simulate_comprehensive_control(
            pftk_simplified, process, num_events=60_000, history_length=8, seed=6
        )
        analytic = analytic_comprehensive_throughput(
            pftk_simplified, process, num_samples=200_000, history_length=8, seed=7
        )
        assert simulated.throughput == pytest.approx(analytic, rel=0.05)

    def test_analytic_rejects_pftk_standard(self, pftk_standard):
        process = ShiftedExponentialIntervals.from_loss_rate_and_cv(0.1, 0.999)
        with pytest.raises(TypeError):
            analytic_comprehensive_throughput(pftk_standard, process, num_samples=1_000)


class TestSweeps:
    NUM_EVENTS = 6_000  # enough for qualitative (shape) assertions, fast in CI

    def test_figure3_shape_pftk(self, pftk_simplified):
        """Figure 3 right: PFTK normalized throughput decreases with p and
        increases with L."""
        points = sweep_loss_event_rate(
            pftk_simplified,
            loss_event_rates=(0.02, 0.2, 0.4),
            history_lengths=(2, 16),
            num_events=self.NUM_EVENTS,
            seed=1,
        )
        by_length = {
            length: {pt.loss_event_rate: pt.normalized_throughput
                     for pt in points if pt.history_length == length}
            for length in (2, 16)
        }
        # Decreasing in p for the small window.
        assert by_length[2][0.4] < by_length[2][0.02]
        # Larger L is less conservative at heavy loss.
        assert by_length[16][0.4] > by_length[2][0.4]

    def test_figure3_sqrt_insensitive_to_p(self, sqrt_formula):
        """Figure 3 left: for SQRT the normalized throughput is essentially
        invariant in p (for this interval distribution family)."""
        points = sweep_loss_event_rate(
            sqrt_formula,
            loss_event_rates=(0.05, 0.4),
            history_lengths=(8,),
            num_events=self.NUM_EVENTS,
            seed=2,
        )
        values = [pt.normalized_throughput for pt in points]
        assert abs(values[0] - values[1]) < 0.08

    def test_figure4_shape(self, pftk_simplified):
        """Figure 4: larger cv[theta_0] makes the control more conservative."""
        points = sweep_coefficient_of_variation(
            pftk_simplified,
            loss_event_rate=0.1,
            coefficients_of_variation=(0.1, 0.9),
            history_lengths=(4,),
            num_events=self.NUM_EVENTS,
            seed=3,
        )
        low_cv, high_cv = points[0], points[1]
        assert high_cv.normalized_throughput < low_cv.normalized_throughput

    def test_history_length_sweep_monotone(self, pftk_simplified):
        """Claim 1: larger estimator window => less conservative."""
        points = sweep_history_length(
            pftk_simplified,
            loss_event_rate=0.2,
            coefficient_of_variation=0.999,
            history_lengths=(1, 4, 16),
            num_events=self.NUM_EVENTS,
            seed=4,
        )
        values = [pt.normalized_throughput for pt in points]
        assert values[0] < values[1] < values[2]

    def test_all_points_conservative(self, pftk_simplified):
        """Theorem 1's hypotheses hold in the numerical experiments, so every
        sweep point is conservative (allowing statistical noise)."""
        points = sweep_loss_event_rate(
            pftk_simplified,
            loss_event_rates=(0.05, 0.2),
            history_lengths=(4, 8),
            num_events=self.NUM_EVENTS,
            seed=5,
        )
        assert all(pt.normalized_throughput < 1.05 for pt in points)


class TestOdeBranchChunking:
    """The ODE growth integral runs in column chunks of bounded size."""

    @staticmethod
    def _durations(formula, intervals, chunk, monkeypatch):
        monkeypatch.setattr(vectorized, "_ODE_CHUNK", chunk)
        weights = tfrc_weights(8)
        kept, estimates, candidates = vectorized.sliding_estimates(
            intervals, weights
        )
        _, durations = vectorized.evaluate_control_arrays(
            formula, kept, estimates, candidates,
            float(weights[0] / weights.sum()), comprehensive=True,
        )
        return durations

    # 8 * 125 + 1 kept events: a naive split would leave a one-column
    # remainder, which numpy reduces pairwise (different bits).
    @pytest.mark.parametrize("shape", [(1_001 + 8,), (3, 1_001 + 8), (1, 400)])
    @pytest.mark.parametrize("chunk", [8, 64])
    def test_chunked_equals_unchunked_exactly(
        self, pftk_standard, monkeypatch, shape, chunk
    ):
        process = ShiftedExponentialIntervals.from_loss_rate_and_cv(0.1, 0.999)
        intervals = process.sample_intervals(
            int(np.prod(shape)), make_rng(21)
        ).reshape(shape)
        chunked = self._durations(pftk_standard, intervals, chunk, monkeypatch)
        whole = self._durations(pftk_standard, intervals, 10**9, monkeypatch)
        assert np.array_equal(chunked, whole)

    def test_long_ode_run_memory_stays_bounded(self):
        """200k events integrate in well under the 256 x N grid's memory.

        Unchunked, the ODE grid alone took 256 x 200k floats (410 MB) per
        temporary; the chunked branch peaks near 21 MB on the whole run,
        so 64 MB leaves room for allocator noise and nothing else.
        """
        config = api.SimConfig(
            formula="pftk-standard", loss_event_rate=0.1,
            coefficient_of_variation=0.999, control="comprehensive",
            num_events=200_000, seed=1,
        )
        tracemalloc.start()
        try:
            result = api.simulate(config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.isfinite(result.normalized_throughput)
        assert peak < 64 * 2**20, peak

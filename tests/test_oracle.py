"""Differential tests: the vectorised kernel against its oracles.

Every production Monte-Carlo path -- scalar ``api.simulate``, the
``simulate_*_control`` entry points, campaign points and batches -- runs
the vectorised kernel of :mod:`repro.montecarlo.vectorized`.  Two
oracles pin it down:

* the per-event ``BasicControl.run`` / ``ComprehensiveControl.run`` loop
  of :mod:`repro.core.control`, the reference semantics, over the very
  interval sequence the facade samples
  (``process.sample_intervals(num_events + L, make_rng(seed))``): all
  five summary fields agree to 1e-12 relative;
* a ``simulate_batch(share_noise=False)`` row at the row's own seed,
  which the scalar facade must equal bit for bit (for the analytic
  method too).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import api
from repro.analysis import phases
from repro.core.control import BasicControl, ComprehensiveControl
from repro.lossprocess.base import make_rng
from repro.montecarlo import simulate_basic_control, simulate_comprehensive_control

FIELDS = (
    "throughput",
    "normalized_throughput",
    "empirical_loss_event_rate",
    "interval_estimate_covariance",
    "estimator_cv",
)

FORMULA_EXAMPLES = api.FORMULAS.examples()
IID_PROCESS_EXAMPLES = {
    kind: process
    for kind, process in api.LOSS_PROCESSES.examples().items()
    if process.is_iid
}
CONTROLS = ("basic", "comprehensive")


def loop_oracle(formula, process, num_events, history_length, seed, control):
    """The five summary fields, from the per-event control loop."""
    weights = api.WEIGHT_PROFILES.from_config(
        {"kind": "tfrc", "history_length": history_length}
    ).weights()
    intervals = process.sample_intervals(
        num_events + history_length, make_rng(seed)
    )
    control_cls = ComprehensiveControl if control == "comprehensive" else BasicControl
    trace = control_cls(formula, weights=weights).run(intervals)
    return {
        "throughput": trace.throughput,
        "normalized_throughput": trace.normalized_throughput(formula),
        "empirical_loss_event_rate": trace.loss_event_rate,
        "interval_estimate_covariance": trace.interval_estimate_covariance(),
        "estimator_cv": float(np.std(trace.estimates) / np.mean(trace.estimates)),
        # The rounding error of a sample covariance scales with
        # sigma_theta * sigma_theta_hat, not with the covariance itself,
        # which is near zero for i.i.d. intervals.
        "covariance_scale": float(
            np.std(trace.intervals) * np.std(trace.estimates)
        ),
    }


def assert_same_summary(scalar, row):
    """The five kernel outputs, compared bit for bit.

    (The nominal ``loss_event_rate`` field is not compared: the batch
    echoes the grid's ``p``, the facade the rate the resolved process
    reports, which may differ in the last bit.)
    """
    for name in FIELDS:
        assert getattr(scalar, name) == getattr(row, name), name


def assert_matches_oracle(result, oracle):
    for name in FIELDS:
        floor = (
            1e-12 * oracle["covariance_scale"]
            if name == "interval_estimate_covariance" else 0.0
        )
        np.testing.assert_allclose(
            getattr(result, name), oracle[name], rtol=1e-12, atol=floor,
            err_msg=name,
        )


@pytest.mark.parametrize("control", CONTROLS)
@pytest.mark.parametrize("process_kind", sorted(IID_PROCESS_EXAMPLES))
@pytest.mark.parametrize("formula_kind", sorted(FORMULA_EXAMPLES))
def test_facade_matches_loop_oracle(formula_kind, process_kind, control):
    formula = FORMULA_EXAMPLES[formula_kind]
    process = IID_PROCESS_EXAMPLES[process_kind]
    result = api.simulate(api.SimConfig(
        formula=formula, loss_process=process, history_length=4,
        control=control, num_events=1_000, seed=3,
    ))
    assert_matches_oracle(
        result, loop_oracle(formula, process, 1_000, 4, 3, control)
    )


@pytest.mark.parametrize("control", CONTROLS)
@pytest.mark.parametrize("formula_kind", sorted(FORMULA_EXAMPLES))
def test_facade_equals_matched_seed_batch_rows(formula_kind, control):
    batch = api.simulate_batch(api.BatchConfig(
        formulas=[formula_kind],
        loss_event_rates=[0.01, 0.1, 0.3],
        coefficients_of_variation=[0.5, 0.999],
        history_lengths=[1, 4, 16],
        control=control, num_events=600, seed=5, share_noise=False,
    ))
    assert len(batch) == 18
    for row in batch.results:
        scalar = api.simulate(api.SimConfig(
            formula=row.formula, loss_event_rate=row.loss_event_rate,
            coefficient_of_variation=row.coefficient_of_variation,
            history_length=row.history_length, control=control,
            num_events=600, seed=row.seed,
        ))
        assert_same_summary(scalar, row)


@pytest.mark.parametrize("control", CONTROLS)
@pytest.mark.parametrize("formula_kind", ["sqrt", "pftk-simplified"])
def test_analytic_facade_equals_matched_seed_batch_rows(formula_kind, control):
    batch = api.simulate_batch(api.BatchConfig(
        formulas=[formula_kind], loss_event_rates=[0.05, 0.2],
        coefficients_of_variation=[0.8], history_lengths=[1, 4, 16],
        control=control, method="analytic", num_events=2_000, seed=4,
        share_noise=False,
    ))
    for row in batch.results:
        scalar = api.simulate(api.SimConfig(
            formula=row.formula, loss_event_rate=row.loss_event_rate,
            coefficient_of_variation=row.coefficient_of_variation,
            history_length=row.history_length, control=control,
            method="analytic", num_events=2_000, seed=row.seed,
        ))
        assert scalar.throughput == row.throughput
        assert scalar.normalized_throughput == row.normalized_throughput


@pytest.mark.parametrize("control", CONTROLS)
def test_process_form_batch_rows_equal_the_facade(control):
    # Every registered kind, correlated ones included: the facade and the
    # batch share the kernel whatever the loss process.
    processes = [
        api.LOSS_PROCESSES.to_config(process)
        for process in api.LOSS_PROCESSES.examples().values()
    ]
    batch = api.simulate_batch(api.BatchConfig(
        formulas=["pftk-standard", "sqrt"], loss_processes=processes,
        history_lengths=[8], control=control, num_events=400, seed=9,
    ))
    for row in batch.results:
        scalar = api.simulate(api.SimConfig(
            formula=row.formula, loss_process=row.loss_process,
            history_length=8, control=control, num_events=400, seed=row.seed,
        ))
        assert_same_summary(scalar, row)


@pytest.mark.parametrize("control", CONTROLS)
def test_named_entry_points_share_the_facade_kernel(control):
    formula = FORMULA_EXAMPLES["pftk-standard"]
    process = IID_PROCESS_EXAMPLES["gamma"]
    entry = (
        simulate_comprehensive_control if control == "comprehensive"
        else simulate_basic_control
    )
    direct = entry(formula, process, num_events=800, history_length=16, seed=4)
    via_api = api.simulate(api.SimConfig(
        formula=formula, loss_process=process, history_length=16,
        control=control, num_events=800, seed=4,
    ))
    assert direct.num_events == 800
    assert direct.throughput == via_api.throughput
    assert direct.normalized_throughput == via_api.normalized_throughput
    assert direct.loss_event_rate == via_api.empirical_loss_event_rate
    assert (direct.interval_estimate_covariance
            == via_api.interval_estimate_covariance)
    assert direct.estimator_cv == via_api.estimator_cv


def test_no_production_path_runs_the_loop(monkeypatch):
    def forbidden(self, *args, **kwargs):
        raise AssertionError("the per-event loop is a test oracle only")

    monkeypatch.setattr(BasicControl, "run", forbidden)
    monkeypatch.setattr(ComprehensiveControl, "run", forbidden)
    formula = FORMULA_EXAMPLES["pftk-simplified"]
    process = IID_PROCESS_EXAMPLES["shifted-exponential"]
    for control in CONTROLS:
        api.simulate(api.SimConfig(
            formula=formula, loss_event_rate=0.1, control=control,
            num_events=200, seed=1,
        ))
    simulate_basic_control(formula, process, num_events=200, seed=1)
    simulate_comprehensive_control(formula, process, num_events=200, seed=1)
    phases.phase_study(formula, 0.1, num_events=200, seed=1)
    phases.phase_study(formula, 0.1, num_events=200, seed=1, comprehensive=True)


@settings(max_examples=40, deadline=None)
@given(
    loss_event_rate=st.floats(min_value=0.005, max_value=0.45),
    cv=st.floats(min_value=0.05, max_value=0.999),
    history_length=st.integers(min_value=1, max_value=16),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    control=st.sampled_from(CONTROLS),
    formula_kind=st.sampled_from(["sqrt", "pftk-simplified", "pftk-standard"]),
)
def test_property_kernel_matches_both_oracles(
    loss_event_rate, cv, history_length, seed, control, formula_kind
):
    config = api.SimConfig(
        formula=formula_kind, loss_event_rate=loss_event_rate,
        coefficient_of_variation=cv, history_length=history_length,
        control=control, num_events=300, seed=seed,
    )
    result = api.simulate(config)
    assert_matches_oracle(result, loop_oracle(
        config.resolve_formula(), config.resolve_loss_process(),
        300, history_length, seed, control,
    ))
    # A one-point batch still derives its row seed from the base seed;
    # the facade at that seed must equal the row bit for bit.
    batch = api.simulate_batch(api.BatchConfig(
        formulas=[formula_kind], loss_event_rates=[loss_event_rate],
        coefficients_of_variation=[cv], history_lengths=[history_length],
        control=control, num_events=300, seed=seed, share_noise=False,
    ))
    row = batch.results[0]
    scalar = api.simulate(api.SimConfig(
        formula=formula_kind, loss_event_rate=loss_event_rate,
        coefficient_of_variation=cv, history_length=history_length,
        control=control, num_events=300, seed=row.seed,
    ))
    assert_same_summary(scalar, row)

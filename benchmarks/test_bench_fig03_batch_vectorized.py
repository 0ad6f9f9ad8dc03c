"""Batch simulate() reproduces the Figure 3 preset in vectorised passes.

The fig3 campaign preset evaluates a 45-point grid (L in {1, 2, 4, 8, 16}
x nine loss-event rates) point by point; each point is the vectorised
kernel on a one-row matrix.  The ``repro.api.simulate_batch`` facade
evaluates the same grid in shared numpy passes, reusing each sampled
interval block across the whole grid and all formula variants.  This
benchmark checks the contract three ways:

* with ``share_noise=False`` the batch derives the preset's own per-point
  seeds and reproduces every normalized throughput bit for bit (same
  draws, same kernel arithmetic);
* with ``share_noise=True`` (one unit-exponential block rescaled per
  point, common random numbers) the qualitative Figure 3 shape holds;
* both vectorised paths are far faster, per point, than the per-event
  ``BasicControl.run`` loop -- the reference semantics, timed on a subset
  of the preset's own sampled sequences -- and agree with it to 1e-12.
"""

import time

import numpy as np

from repro import api
from repro.core.control import BasicControl
from repro.experiments import ExperimentRunner, preset
from repro.lossprocess import ShiftedExponentialIntervals
from repro.lossprocess.base import make_rng
from repro.montecarlo import FIGURE3_CV

from conftest import print_table

#: Every ninth preset point: one loss-event rate per window length.
LOOP_POINT_STRIDE = 9


def time_loop_oracle(spec):
    """Run the per-event loop over a subset of the preset's sequences."""
    formula = api.FORMULAS.from_config(spec.base["formula"])
    num_events = int(spec.base["num_events"])
    subset = spec.expand()[::LOOP_POINT_STRIDE]
    values = {}
    started = time.perf_counter()
    for point in subset:
        length = int(point.params["history_length"])
        rate = float(point.params["loss_event_rate"])
        process = ShiftedExponentialIntervals.from_loss_rate_and_cv(
            rate, float(point.params["coefficient_of_variation"])
        )
        intervals = process.sample_intervals(
            num_events + length, make_rng(point.seed)
        )
        weights = api.WEIGHT_PROFILES.from_config(
            {"kind": "tfrc", "history_length": length}
        ).weights()
        trace = BasicControl(formula, weights=weights).run(intervals)
        values[(length, rate)] = trace.normalized_throughput(formula)
    seconds_per_point = (time.perf_counter() - started) / len(subset)
    return values, seconds_per_point


def run_preset_and_batches():
    spec = preset("fig3-pftk")
    loss_rates = [float(p) for p in spec.grid["loss_event_rate"]]
    lengths = [int(length) for length in spec.grid["history_length"]]
    common = dict(
        formulas=[spec.base["formula"]],
        loss_event_rates=loss_rates,
        coefficients_of_variation=[FIGURE3_CV],
        history_lengths=lengths,
        num_events=int(spec.base["num_events"]),
        seed=spec.seed,
    )

    started = time.perf_counter()
    campaign = ExperimentRunner().run(spec)
    campaign.raise_errors()
    campaign_seconds = time.perf_counter() - started

    started = time.perf_counter()
    exact = api.simulate_batch(api.BatchConfig(share_noise=False, **common))
    exact_seconds = time.perf_counter() - started

    started = time.perf_counter()
    shared = api.simulate_batch(api.BatchConfig(share_noise=True, **common))
    shared_seconds = time.perf_counter() - started

    loop, loop_seconds_per_point = time_loop_oracle(spec)

    def as_table(results):
        return {
            (result.history_length, result.loss_event_rate):
                result.normalized_throughput
            for result in results
        }

    return {
        "loss_rates": loss_rates,
        "lengths": lengths,
        "scalar": {
            (row["history_length"], row["loss_event_rate"]):
                row["normalized_throughput"]
            for row in campaign.values()
        },
        "exact": as_table(exact.results),
        "shared": as_table(shared.results),
        "loop": loop,
        "campaign_seconds": campaign_seconds,
        "exact_seconds": exact_seconds,
        "shared_seconds": shared_seconds,
        "loop_grid_seconds": loop_seconds_per_point * len(campaign.results),
    }


def test_fig03_batch_matches_preset(run_once):
    data = run_once(run_preset_and_batches)
    loss_rates, lengths = data["loss_rates"], data["lengths"]
    scalar, exact, shared = data["scalar"], data["exact"], data["shared"]

    rows = []
    for length in lengths:
        rows.append([f"L={length} (preset)"]
                    + [scalar[(length, p)] for p in loss_rates])
        rows.append([f"L={length} (batch)"]
                    + [shared[(length, p)] for p in loss_rates])
    print_table(
        "Figure 3 (PFTK-simplified): x_bar/f(p), per-point preset vs "
        "shared-noise vectorised batch",
        ["window"] + [f"p={p}" for p in loss_rates],
        rows,
    )
    loop_seconds = data["loop_grid_seconds"]
    print(f"per-event loop (extrapolated from {len(data['loop'])} points): "
          f"{loop_seconds:.2f} s | per-point campaign: "
          f"{data['campaign_seconds']:.2f} s | vectorised batch: "
          f"{data['exact_seconds']:.2f} s (matched seeds, "
          f"x{loop_seconds / data['exact_seconds']:.0f}), "
          f"{data['shared_seconds']:.3f} s (shared noise, "
          f"x{loop_seconds / data['shared_seconds']:.0f})")

    # Matched-seed batch reproduces the preset bit for bit.
    assert set(scalar) == set(exact) == set(shared)
    for key, value in scalar.items():
        assert exact[key] == value, (key, value, exact[key])

    # The kernel agrees with the loop oracle on the preset's sequences.
    for key, value in data["loop"].items():
        assert np.isclose(scalar[key], value, rtol=1e-12, atol=0.0), (
            key, value, scalar[key])

    # The shared-noise fast path preserves the Figure 3 shape.
    assert shared[(1, 0.4)] < 0.3 * shared[(1, 0.01)]
    assert shared[(16, 0.4)] > shared[(4, 0.4)] > shared[(1, 0.4)]
    assert all(value < 1.05 for value in shared.values())
    for length in lengths:
        assert shared[(length, 0.4)] < shared[(length, 0.01)]

    # The vectorised grid must beat the per-event loop decisively.
    assert data["exact_seconds"] < loop_seconds / 5.0
    assert data["shared_seconds"] < loop_seconds / 5.0

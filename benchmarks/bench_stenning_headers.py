"""E4 -- positive control: Stenning over non-FIFO channels + header growth.

Two claims from the paper's Sections 1 and 9:

* Stenning's protocol (distinct sequence numbers) is weakly correct
  even when the physical channels reorder arbitrarily;
* the price is a header alphabet that grows linearly with the number
  of messages, versus O(1) for the sliding windows (which are unusable
  over such channels -- see E2).
"""

from __future__ import annotations

import pytest

from repro.alphabets import MessageFactory
from repro.analysis import measure_header_growth
from repro.channels import PermissiveChannelState, random_reordering
from repro.datalink import wdl_module
from repro.protocols import sliding_window_protocol, stenning_protocol
from repro.sim import delivery_stats, permissive_system

MESSAGES = 12


@pytest.mark.parametrize("window", [2, 6])
@pytest.mark.parametrize("loss", [0.0, 0.25])
def test_stenning_over_reordering(benchmark, window, loss):
    composed = permissive_system(stenning_protocol())

    def transfer():
        system = composed.started(
            PermissiveChannelState(delivery=random_reordering(5, loss, window)),
            PermissiveChannelState(delivery=random_reordering(55, loss, window)),
        )
        factory = MessageFactory()
        messages = factory.fresh_many(MESSAGES)
        fragment = system.run_fair(
            system.initial_state(),
            inputs=[system.wake_t(), system.wake_r()]
            + [system.send(m) for m in messages],
            max_steps=500_000,
        )
        return system, fragment

    system, fragment = benchmark(transfer)
    stats = delivery_stats(fragment)
    assert stats.delivered == MESSAGES and stats.duplicates == 0
    assert wdl_module("t", "r").contains(system.behavior(fragment))
    benchmark.extra_info["steps"] = len(fragment)


@pytest.mark.parametrize(
    "name,factory,expected_slope_range",
    [
        ("stenning", stenning_protocol, (1.5, 2.5)),
        ("sliding-window-2", lambda: sliding_window_protocol(2), (0.0, 0.5)),
    ],
)
def test_header_growth(benchmark, name, factory, expected_slope_range):
    def measure():
        return measure_header_growth(
            factory(), checkpoints=(1, 2, 4, 8, 16, 32)
        )

    series = benchmark(measure)
    low, high = expected_slope_range
    slope = series.slope_estimate()
    assert low <= slope <= high, (name, slope)
    benchmark.extra_info["slope"] = round(slope, 2)
    benchmark.extra_info["headers_at_32"] = series.points[-1].total_distinct


def test_growth_contrast(benchmark):
    """Crossover: linear vs bounded header usage."""

    def contrast():
        stenning_series = measure_header_growth(
            stenning_protocol(), checkpoints=(4, 16)
        )
        window_series = measure_header_growth(
            sliding_window_protocol(2), checkpoints=(4, 16)
        )
        return stenning_series, window_series

    stenning_series, window_series = benchmark(contrast)
    assert not stenning_series.is_bounded()
    assert window_series.is_bounded()
    assert (
        stenning_series.points[-1].total_distinct
        > 4 * window_series.points[-1].total_distinct
    )

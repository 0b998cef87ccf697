"""E9 -- exhaustive bounded verification of the protocol zoo.

Complements the other experiments' sampled and constructed adversaries
with full state-space enumeration at small bounds: every loss pattern
and every interleaving over bounded-capacity nondeterministic lossy
FIFO channels.  Expected shape: the correct protocols verify
exhaustively; the strawmen yield minimal counterexamples in well under
a hundred states.
"""

from __future__ import annotations

import pytest

from repro.analysis import verify_delivery_order
from repro.protocols import (
    alternating_bit_protocol,
    direct_protocol,
    eager_protocol,
    fragmenting_protocol,
    sliding_window_protocol,
    stenning_protocol,
)
from tests.ioa.reference_explorer import reference_explore

VERIFIED = {
    "abp": (alternating_bit_protocol, 2, 2),
    "sliding-window-2": (lambda: sliding_window_protocol(2), 2, 2),
    "stenning": (stenning_protocol, 2, 2),
    "fragmenting": (
        lambda: fragmenting_protocol(chunk=1, max_fragments=2),
        2,
        2,
    ),
}


@pytest.mark.parametrize("name", sorted(VERIFIED))
def test_exhaustive_verification(benchmark, name):
    factory, messages, capacity = VERIFIED[name]

    result = benchmark(
        lambda: verify_delivery_order(
            factory(), messages=messages, capacity=capacity
        )
    )
    assert result.ok and result.exhaustive
    benchmark.extra_info["states"] = result.states_explored


RAISED_BOUNDS = {
    # Bounds the seed explorer was too slow to reach comfortably; the
    # compiled core (see verify-zoo in bench/BENCH_perfbench.json)
    # makes them routine.  sliding-window at 3 messages / capacity 3 is
    # a ~105k state proof.
    "abp-3msg-cap3": (alternating_bit_protocol, 3, 3),
    "sliding-window-2-3msg-cap3": (lambda: sliding_window_protocol(2), 3, 3),
}


@pytest.mark.parametrize("name", sorted(RAISED_BOUNDS))
def test_exhaustive_verification_raised_bounds(benchmark, name):
    factory, messages, capacity = RAISED_BOUNDS[name]

    result = benchmark.pedantic(
        lambda: verify_delivery_order(
            factory(),
            messages=messages,
            capacity=capacity,
            max_states=2_000_000,
        ),
        rounds=1,
        iterations=1,
    )
    assert result.ok and result.exhaustive
    benchmark.extra_info["states"] = result.states_explored


@pytest.mark.parametrize(
    "name,factory",
    [("eager", eager_protocol), ("direct", direct_protocol)],
)
def test_counterexample_search(benchmark, name, factory):
    result = benchmark(
        lambda: verify_delivery_order(factory(), messages=2, capacity=2)
    )
    assert not result.ok
    benchmark.extra_info["states"] = result.states_explored
    benchmark.extra_info["cex_length"] = len(result.counterexample)


def test_abp_refinement_proof(benchmark):
    """Structural ``solves``: ABP refines the reliable-link spec."""
    from repro.analysis import verify_abp_refinement

    result = benchmark(
        lambda: verify_abp_refinement(messages=2, capacity=2)
    )
    assert result.holds and result.exhaustive
    benchmark.extra_info["states"] = result.states_checked


def test_reordering_boundary(benchmark):
    """Footnote-1 complement, exhaustively: modulus vs. displacement."""
    from repro.protocols import modulo_stenning_protocol

    def boundary():
        abp_fifo = verify_delivery_order(
            alternating_bit_protocol(),
            messages=2,
            capacity=3,
            reorder_depth=1,
        )
        abp_reorder = verify_delivery_order(
            alternating_bit_protocol(),
            messages=2,
            capacity=3,
            reorder_depth=2,
        )
        mod4_reorder = verify_delivery_order(
            modulo_stenning_protocol(4),
            messages=2,
            capacity=3,
            reorder_depth=2,
        )
        return abp_fifo, abp_reorder, mod4_reorder

    abp_fifo, abp_reorder, mod4_reorder = benchmark(boundary)
    assert abp_fifo.ok and abp_fifo.exhaustive
    assert not abp_reorder.ok  # ABP breaks at displacement 2
    assert mod4_reorder.ok and mod4_reorder.exhaustive  # N=4 tolerates it
    benchmark.extra_info["abp_cex_len"] = len(abp_reorder.counterexample)


ENGINE_CASES = {
    "abp": (alternating_bit_protocol, 3, 3),
    "stenning": (stenning_protocol, 3, 3),
    "sliding-window-2": (lambda: sliding_window_protocol(2), 2, 2),
}

#: Half the 6.55x median engine/reference speedup last recorded for
#: these cases, so the floor holds on a loaded runner.
ENGINE_SPEEDUP_FLOOR = 3.25


def test_engine_outpaces_reference():
    """The pure-Python engine stays well ahead of the naive BFS.

    ``explore()`` runs closed compositions on the compiled core, but
    the engine still answers every ``environment=``/``validate=`` call,
    every non-composition and every fallback.  A ratio against the
    reference BFS timed in the same process holds across runner
    hardware, where absolute states/sec does not.  Each repeat builds a
    fresh closed system, so no run sees caches warmed by another; the
    closed system's components carry no step memo, as the pre-engine
    explorer had none.
    """
    import time
    from statistics import median

    from repro.analysis.model_check import build_closed_system
    from repro.ioa.engine import explore_engine

    def timed(run, factory, messages, capacity, repeats=3):
        seconds = []
        for _ in range(repeats):
            composition, invariant, _ = build_closed_system(
                factory(), messages=messages, capacity=capacity
            )
            started = time.perf_counter()
            result = run(
                composition, invariant=invariant, max_depth=10_000_000
            )
            seconds.append(time.perf_counter() - started)
        return median(seconds), result

    speedups = {}
    for name, (factory, messages, capacity) in ENGINE_CASES.items():
        engine_s, engine = timed(explore_engine, factory, messages, capacity)
        reference_s, baseline = timed(
            reference_explore, factory, messages, capacity
        )
        assert engine.states == baseline.states, name
        assert engine.truncated == baseline.truncated, name
        speedups[name] = reference_s / engine_s
    assert median(speedups.values()) >= ENGINE_SPEEDUP_FLOOR, speedups

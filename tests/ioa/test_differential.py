"""Backend differential over the fuzz zoo x channel matrix.

Every way of exploring -- the reference BFS kept as the oracle, the
interned pure-Python engine, the compiled packed-key core and the
default ``explore()`` dispatcher -- must report the same reachable set,
the same ``truncated`` flag and the same counterexamples on the same
closed system.  The
systems come from the fuzz harness (seeded channel adversaries over
the protocol zoo), including corrupted ``initial_state=`` starts from
the self-stabilization workload, so the matrix covers exactly what the
campaigns explore.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.alphabets import MessageFactory
from repro.analysis.model_check import build_closed_system
from repro.conformance.arbitrary import corrupt_initial_state
from repro.conformance.harness import FuzzConfig, SubSeeds, build_system
from repro.ioa.engine.accel import accel_backend_id, explore_accel
from repro.ioa.engine.core import explore_engine
from repro.ioa.explorer import explore
from repro.protocols import alternating_bit_protocol

from .reference_explorer import reference_explore

PROTOCOLS = ("alternating_bit", "stenning", "sliding_window")
CHANNELS = ("fifo", "nonfifo", "bounded_nonfifo")

#: Small adversaries keep each exploration in the low thousands of
#: states; ``max_states`` below guarantees termination regardless.
CONFIG = FuzzConfig(messages=2, capacity=2, horizon=16, reorder_window=2)
MAX_STATES = 1500


#: Name -> explorer; each takes the automaton plus ``explore`` options.
ENGINES = {
    "default": explore,
    "reference": reference_explore,
    "engine": explore_engine,
}
if accel_backend_id():
    ENGINES["accel"] = explore_accel


def _composition(protocol: str, channel: str, seed: int):
    subseeds = SubSeeds.derive(random.Random(seed))
    system = build_system(protocol, channel, subseeds, CONFIG)
    return system, subseeds, system.automaton.inner


def _started_state(system):
    """A state with both stations awake and two messages submitted.

    The fuzz compositions take their inputs from scripts, not from an
    environment automaton, so the clean initial state is quiescent;
    applying the canonical script prefix first gives the engines a real
    state space (retransmissions, deliveries, acks) to disagree over.
    """
    factory = MessageFactory(label="s")
    automaton = system.automaton
    state = system.initial_state()
    for action in (
        system.wake_t(),
        system.wake_r(),
        system.send(factory.fresh()),
        system.send(factory.fresh()),
    ):
        state = automaton.step(state, action)
    return state


def _assert_agree(composition, initial_state=None, expect_progress=True):
    results = {
        engine: run(
            composition,
            max_states=MAX_STATES,
            initial_state=initial_state,
        )
        for engine, run in ENGINES.items()
    }
    oracle = results["reference"]
    if expect_progress:
        assert len(oracle.states) > 1
    for engine, result in results.items():
        assert result.truncated == oracle.truncated, engine
        assert len(result.states) == len(oracle.states), engine
        assert result.states == oracle.states, engine
        assert result.violation is None, engine
    return oracle


@pytest.mark.parametrize("channel", CHANNELS)
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_engines_agree_on_clean_starts(protocol, channel):
    system, _, composition = _composition(protocol, channel, seed=2024)
    _assert_agree(composition, initial_state=_started_state(system))


@pytest.mark.parametrize("channel", CHANNELS)
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_engines_agree_on_corrupted_starts(protocol, channel):
    system, subseeds, composition = _composition(
        protocol, channel, seed=2025
    )
    corrupted = corrupt_initial_state(system, subseeds)
    _assert_agree(
        composition, initial_state=corrupted, expect_progress=False
    )


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=5, deadline=None)
def test_engines_agree_on_fuzzed_seeds(seed):
    # Hypothesis fuzzes the harness seed itself: fresh channel
    # adversaries and a fresh corruption each example.
    system, subseeds, composition = _composition(
        "alternating_bit", "bounded_nonfifo", seed=seed
    )
    _assert_agree(composition, initial_state=_started_state(system))
    _assert_agree(
        composition,
        initial_state=corrupt_initial_state(system, subseeds),
        expect_progress=False,
    )


def test_engines_agree_on_violation_traces():
    # reorder_depth=2 breaks the alternating-bit protocol; every
    # backend must convict the same state through the same
    # layer-minimal trace.
    violations = {}
    for engine, run in ENGINES.items():
        composition, invariant, _ = build_closed_system(
            alternating_bit_protocol(),
            messages=2,
            capacity=2,
            reorder_depth=2,
        )
        result = run(composition, invariant=invariant)
        assert result.violation is not None, engine
        state, trace = result.violation
        violations[engine] = (state, tuple(trace))
    oracle = violations["reference"]
    for engine, violation in violations.items():
        assert violation == oracle, engine


def test_engines_agree_under_truncation():
    # The budget contract (count, then drop the overflow entry, then
    # stop the whole search) must leave every backend holding the same
    # prefix of the BFS order.
    system, _, composition = _composition(
        "sliding_window", "bounded_nonfifo", seed=7
    )
    started = _started_state(system)
    results = {
        engine: run(composition, max_states=300, initial_state=started)
        for engine, run in ENGINES.items()
    }
    oracle = results["reference"]
    assert oracle.truncated
    assert len(oracle.states) == 300
    for engine, result in results.items():
        assert result.truncated, engine
        assert result.states == oracle.states, engine


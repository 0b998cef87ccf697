"""Tests for the bounded state-space explorer."""

from __future__ import annotations

import pytest

from repro.ioa import Composition, explore, reachable_states
from repro.ioa.engine import accel
from repro.ioa.engine.accel import (
    AccelUnavailable,
    LazyStateSet,
    accel_backend_id,
)
from repro.ioa.engine.core import explore_engine
from repro.obs import MemorySink, tracing
from .reference_explorer import reference_explore
from .toys import Counter, Echo, Forwarder, Nondet, ping


class TestExplore:
    def test_counter_reaches_all_values(self):
        counter = Counter(5)
        states = reachable_states(counter)
        assert states == set(range(6))

    def test_invariant_violation_found_with_trace(self):
        counter = Counter(5)
        result = explore(counter, invariant=lambda s: s != 2)
        assert not result.ok
        state, trace = result.violation
        assert state == 2
        assert len(trace) == 3  # three ticks from 5 to 2

    def test_invariant_checked_at_start(self):
        counter = Counter(0)
        result = explore(counter, invariant=lambda s: s != 0)
        assert not result.ok
        assert result.violation[1] == ()

    def test_environment_inputs_explored(self):
        echo = Echo()
        states = reachable_states(
            echo,
            environment=lambda s: [ping(len(s))] if len(s) < 3 else [],
        )
        # Queues of payloads (0, 1, 2 ...) up to depth 3, plus drained
        # variants.
        assert () in states
        assert (0,) in states
        assert (0, 1, 2) in states

    def test_nondeterminism_explored_exhaustively(self):
        states = reachable_states(Nondet())
        assert states == {"start", "heads", "tails"}

    def test_truncation_flag(self):
        counter = Counter(100)
        result = explore(counter, max_states=10)
        assert result.truncated
        assert len(result.states) <= 11


class TestSingleExplorationPath:
    def test_workers_option_is_gone(self):
        with pytest.raises(TypeError):
            explore(Counter(3), workers=2)


def _echo_pair():
    return Composition([Echo(), Forwarder()])


def _offer_pings(state):
    return [ping(len(state[0]))] if len(state[0]) < 3 else []


def _countdown_pair():
    return Composition([Counter(3, tag="a"), Counter(2, tag="b")])


def _narrow_slots():
    # 32 slots leave 2 packed bits (4 slice ids) per slot; the first
    # counter takes 6 values, so it outgrows its budget mid-search.
    return Composition(
        [Counter(5, tag="t0")]
        + [Counter(0, tag=f"t{slot}") for slot in range(1, 32)]
    )


def _fail_load():
    raise AccelUnavailable("forced load failure")


requires_accel = pytest.mark.skipif(
    accel_backend_id() is None, reason="no C compiler for the compiled core"
)


class TestDispatcher:
    """``explore()`` picks the compiled core whenever it can run."""

    @requires_accel
    def test_closed_composition_runs_the_compiled_core(self):
        result = explore(_countdown_pair())
        assert isinstance(result.states, LazyStateSet)
        assert result.fallback is None
        assert "fallback" not in result.report().details
        assert result.states == reference_explore(_countdown_pair()).states

    @pytest.mark.parametrize(
        "automaton, options",
        [
            (_echo_pair(), {"environment": _offer_pings}),
            (_countdown_pair(), {"validate": True}),
            (Counter(4), {}),
        ],
        ids=["environment", "validate", "non-composition"],
    )
    def test_other_calls_choose_the_engine(
        self, monkeypatch, automaton, options
    ):
        monkeypatch.setenv("REPRO_ACCEL_REQUIRE", "1")
        result = explore(automaton, **options)
        assert type(result.states) is set
        assert result.fallback is None
        assert "fallback" not in result.report().details

    def test_load_failure_falls_back_with_its_reason(self, monkeypatch):
        monkeypatch.delenv("REPRO_ACCEL_REQUIRE", raising=False)
        monkeypatch.setattr(accel, "_load_module", _fail_load)
        with tracing(MemorySink()) as tracer:
            result = explore(_countdown_pair())
        assert result.fallback == "forced load failure"
        assert result.report().details["fallback"] == result.fallback
        assert tracer.snapshot_counters()["explore.accel_fallback"] == 1
        assert result.states == reference_explore(_countdown_pair()).states

    def test_require_turns_a_load_failure_into_an_error(
        self, monkeypatch
    ):
        monkeypatch.setenv("REPRO_ACCEL_REQUIRE", "1")
        monkeypatch.setattr(accel, "_load_module", _fail_load)
        with pytest.raises(AccelUnavailable, match="forced"):
            explore(_countdown_pair())

    @requires_accel
    def test_packed_overflow_falls_back_to_the_engine(self, monkeypatch):
        # An overflow is a property of the state space, not of the
        # build, so it degrades even under REPRO_ACCEL_REQUIRE.
        monkeypatch.setenv("REPRO_ACCEL_REQUIRE", "1")
        result = explore(_narrow_slots())
        assert "slot budget" in result.fallback
        assert type(result.states) is set
        assert result.states == explore_engine(_narrow_slots()).states
        assert {state[0] for state in result.states} == set(range(6))

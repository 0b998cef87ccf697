"""Tests for the bounded state-space explorer."""

from __future__ import annotations

import pytest

from repro.ioa import Composition, explore, reachable_states
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


class TestAccelFallbackVisible:
    """A degraded ``engine="accel"`` run says so without a tracer."""

    def test_environment_fallback_reason_in_report(self, monkeypatch):
        monkeypatch.delenv("REPRO_ACCEL_REQUIRE", raising=False)
        result = explore(
            _echo_pair(), environment=_offer_pings, engine="accel"
        )
        assert result.fallback is not None
        assert "environment" in result.fallback
        assert result.report().details["fallback"] == result.fallback
        baseline = explore(_echo_pair(), environment=_offer_pings)
        assert result.states == baseline.states
        assert baseline.fallback is None
        assert "fallback" not in baseline.report().details

    def test_require_turns_fallback_into_an_error(self, monkeypatch):
        from repro.ioa.engine.accel import AccelUnavailable

        monkeypatch.setenv("REPRO_ACCEL_REQUIRE", "1")
        with pytest.raises(AccelUnavailable):
            explore(_echo_pair(), environment=_offer_pings, engine="accel")

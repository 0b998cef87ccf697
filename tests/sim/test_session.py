"""Tests for the :class:`~repro.sim.session.Session` façade and the
redesigned :meth:`ScenarioResult.report` signature."""

from __future__ import annotations

import warnings

import pytest

from repro.protocols import alternating_bit_protocol
from repro.sim import (
    FaultPlan,
    Session,
    fifo_system,
    generate_script,
)


def _session(seed=3, messages=4):
    system = fifo_system(alternating_bit_protocol())
    script = generate_script(system, FaultPlan(messages=messages, seed=seed))
    return Session(system=system, script=tuple(script.actions), seed=seed)


class TestSessionFacade:
    def test_run_quiesces_and_delivers(self):
        result = _session().run()
        assert result.quiescent
        assert result.steps > 0

    def test_run_is_rerunnable_bit_identically(self):
        session = _session()
        first = session.run()
        second = session.run()
        assert first.behavior == second.behavior
        assert first.steps == second.steps

    def test_drain_ending_exactly_at_budget_is_quiescent(self):
        steps = _session().run().steps
        exact = _session()
        exact.max_steps = steps
        result = exact.run()
        assert result.quiescent
        assert result.steps == steps
        short = _session()
        short.max_steps = steps - 1
        assert not short.run().quiescent

    def test_from_spec_builds_from_master_seed(self):
        session = Session.from_spec("alternating_bit", "fifo", 42)
        result = session.run()
        assert result.quiescent

    def test_from_spec_deterministic_in_seed(self):
        a = Session.from_spec("alternating_bit", "fifo", 42).run()
        b = Session.from_spec("alternating_bit", "fifo", 42).run()
        assert a.behavior == b.behavior
        assert Session.from_spec(
            "alternating_bit", "fifo", 42
        ).script == Session.from_spec("alternating_bit", "fifo", 42).script

    def test_from_spec_distinct_seeds_diverge(self):
        a = Session.from_spec("alternating_bit", "nonfifo", 1).run()
        b = Session.from_spec("alternating_bit", "nonfifo", 2).run()
        assert a.behavior != b.behavior


class TestScenarioReportSignature:
    def test_stations_keyword(self):
        result = _session().run()
        report = result.report(0.5, stations=("t", "r"))
        assert report.command == "simulate"
        assert report.duration_s == 0.5
        assert report.counters["sim.steps"] == result.steps

    def test_modern_form_does_not_warn(self):
        result = _session().run()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result.report(0.5, stations=("t", "r"))
        assert not [
            w for w in caught if issubclass(w.category, DeprecationWarning)
        ]

    def test_unknown_keyword_rejected(self):
        result = _session().run()
        with pytest.raises(TypeError):
            result.report(0.5, station="t")

    def test_station_names_are_keyword_only(self):
        result = _session().run()
        with pytest.raises(TypeError):
            result.report(0.5, "t", "r")
        with pytest.raises(TypeError):
            result.report(0.5, t="t", r="r")

"""Tests for the :class:`~repro.sim.session.Session` façade and the
redesigned :meth:`ScenarioResult.report` signature."""

from __future__ import annotations

import random
import warnings
from dataclasses import replace

import pytest

from repro.alphabets import Packet
from repro.channels import receive_pkt, send_pkt
from repro.conformance import FuzzConfig, SubSeeds
from repro.conformance.harness import resolve_pair
from repro.ioa.automaton import TransitionError
from repro.obs import MemorySink, tracing
from repro.protocols import alternating_bit_protocol
from repro.protocols.alternating_bit import ACK
from repro.sim import (
    Checkpoints,
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


class TestInputPath:
    """Script inputs step through the composition's fair-kernel view."""

    @pytest.mark.parametrize(
        "action",
        [
            receive_pkt("r", "t", Packet((ACK, 0))),  # nothing in transit
            send_pkt("x", "y", Packet("h")),  # no component owns it
        ],
    )
    def test_refused_input_raises_what_step_raises(self, action):
        session = replace(_session(), script=(action,))
        with pytest.raises(TransitionError) as expected:
            session.system.automaton.step(session.system.initial_state(), action)
        with pytest.raises(TransitionError) as raised:
            session.run()
        assert str(raised.value) == str(expected.value)

    def test_sessions_sharing_a_resolved_pair_equal_fresh_ones(self):
        # Each session starts where the last one's view left off; an
        # arbitrary start also runs the corruption's probe walk on the
        # shared composition first.
        resolved = resolve_pair("alternating_bit", "nonfifo")
        master = random.Random(5)
        clean = FuzzConfig(messages=4)
        arbitrary = replace(clean, init_mode="arbitrary")
        for config in (clean, arbitrary, clean, arbitrary):
            seeds = SubSeeds.derive(master)
            shared = Session.from_spec(
                "alternating_bit", "nonfifo", seeds, config, resolved=resolved
            )
            fresh = Session.from_spec("alternating_bit", "nonfifo", seeds, config)
            assert shared.run().fragment == fresh.run().fragment


#: Eight messages; a candidate that wedges stops at 2,000 steps.
SMALL = FuzzConfig(messages=8, max_steps=2000)


def _stop_at(name, nth):
    """A fresh predicate holding at the ``nth`` action called ``name``."""
    seen = [0]

    def stop_when(action):
        if action.name == name:
            seen[0] += 1
        return seen[0] == nth

    return stop_when


def _cut(result, stop_when):
    """The plain run ``result`` cut right after ``stop_when``'s first hit."""
    for index, action in enumerate(result.fragment.actions):
        if stop_when(action):
            fragment = result.fragment
            return fragment.states[: index + 2], fragment.actions[: index + 1]
    return None


class TestCheckpointsAndStop:
    """``run(stop_when, checkpoints)`` equals the plain run, cut at the
    first stop, whatever earlier runs left in the shared trie."""

    def _candidates(self, script, rng, count):
        """Scripts that share prefixes, as a shrinker's candidates do."""
        candidates = [script]
        for _ in range(count):
            base = list(rng.choice(candidates))
            for _ in range(rng.randint(1, 3)):
                if base:
                    start = rng.randrange(len(base))
                    del base[start : start + rng.randint(1, 4)]
            candidates.append(tuple(base))
        return candidates

    def _check(self, session, max_steps, seed):
        import random

        rng = random.Random(seed)
        shared = Checkpoints()
        resumed, stopped = 0, 0
        names = ("send_msg", "receive_msg", "send_pkt", "receive_pkt", "wake")
        for script in self._candidates(session.script, rng, 60):
            candidate = replace(session, script=script, max_steps=max_steps)
            plain = candidate.run()
            stop = None
            if rng.random() < 0.7:
                stop = (rng.choice(names), rng.randint(1, 6))
            got = candidate.run(
                _stop_at(*stop) if stop else None, shared
            )
            resumed += got.resumed
            cut = _cut(plain, _stop_at(*stop)) if stop else None
            if cut is None:
                assert got.fragment == plain.fragment
                assert got.behavior == plain.behavior
                assert got.quiescent == plain.quiescent
            else:
                states, actions = cut
                assert got.fragment.states == states
                assert got.fragment.actions == actions
                assert not got.quiescent
                assert got.behavior == candidate.system.behavior(got.fragment)
                stopped += 1
        assert resumed > 0 and stopped > 0

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_shared_trie_runs_equal_the_plain_run_cut_at_the_stop(self, seed):
        session = Session.from_spec("naive", "nonfifo", seed, SMALL)
        self._check(session, session.max_steps, seed)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_budget_running_out_mid_script(self, seed):
        session = Session.from_spec("alternating_bit", "nonfifo", seed, SMALL)
        steps = session.run().steps
        self._check(session, steps // 3, seed)
        assert not replace(session, max_steps=steps // 3).run().quiescent

    def test_resumed_prefix_that_already_stopped_answers_at_once(self):
        session = Session.from_spec("naive", "nonfifo", 4)
        shared = Checkpoints()
        first = session.run(_stop_at("send_msg", 1), shared)
        assert first.fragment.actions[-1].name == "send_msg"
        assert first.resumed == 0
        again = session.run(_stop_at("send_msg", 1), shared)
        assert again.fragment == first.fragment
        assert again.resumed == again.steps

    def test_later_runs_leave_an_earlier_fragment_unchanged(self):
        # A checkpointed run's fragment shares its lists with the trie.
        # Runs resumed from its checkpoints, diverging inside it or going
        # past its end, must leave every element it covers as it was,
        # before it is first read.
        session = Session.from_spec("naive", "nonfifo", 5, SMALL)
        plain = session.run()
        shared = Checkpoints()
        first = session.run(checkpoints=shared)
        script = session.script
        later = [script[:cut] + script[cut + 1 :] for cut in (3, 6, 9)]
        later.append(script + script[:4])
        for other in later:
            assert replace(session, script=other).run(
                checkpoints=shared
            ).resumed
        assert first.fragment.states == plain.fragment.states
        assert first.fragment.actions == plain.fragment.actions
        assert first.behavior == plain.behavior

    def test_stopped_run_is_not_counted_non_quiescent(self):
        session = Session.from_spec("naive", "nonfifo", 4)
        with tracing(MemorySink()) as tracer:
            result = session.run(_stop_at("receive_pkt", 1))
            counters = tracer.snapshot_counters()
        assert result.fragment.actions[-1].name == "receive_pkt"
        assert not result.quiescent
        assert "sim.nonquiescent_runs" not in counters

    def test_trie_of_another_setup_is_refused(self):
        session = Session.from_spec("naive", "nonfifo", 4)
        shared = Checkpoints()
        session.run(checkpoints=shared)
        with pytest.raises(ValueError, match="another session setup"):
            replace(session, seed=session.seed + 1).run(checkpoints=shared)


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

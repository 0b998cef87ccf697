"""Differential tests: the pure-Python engine vs. the naive reference BFS.

The engine (:func:`repro.ioa.engine.explore_engine`: trace-free
parent-pointer frontiers, state interning, memoized component
stepping) must be observationally identical to the original naive
breadth-first search, kept in ``reference_explorer.py``:
same reachable-state set, same ``truncated`` flag, and a counterexample
of the same (layer-minimal) length that actually replays on the
automaton.  These tests call the engine directly, because ``explore()``
sends closed compositions to the compiled core; they check it across
the toy automata and the protocol zoo's closed systems, including the
reordering-boundary counterexample cases.  The default ``explore()``
is compared with the reference in ``test_differential.py``.
"""

from __future__ import annotations

import pytest

from repro.ioa import Composition
from repro.ioa.automaton import with_memo
from repro.ioa.engine import InternTable, explore_engine
from repro.analysis.model_check import build_closed_system
from repro.protocols import (
    alternating_bit_protocol,
    direct_protocol,
    eager_protocol,
    fragmenting_protocol,
    modulo_stenning_protocol,
    sliding_window_protocol,
    stenning_protocol,
)

from .reference_explorer import reference_explore
from .toys import Counter, Echo, Forwarder, Nondet, ping


def assert_equivalent(automaton_factory, reference_factory=None, **kwargs):
    """Run both explorers and compare the full result contract.

    Factories (not shared instances) keep the two runs honest: neither
    explorer sees caches warmed by the other.  Returns (engine result,
    reference result) for extra assertions.
    """
    reference_factory = reference_factory or automaton_factory
    engine = explore_engine(automaton_factory(), **kwargs)
    reference = reference_explore(reference_factory(), **kwargs)
    assert engine.states == reference.states
    assert engine.truncated == reference.truncated
    assert (engine.violation is None) == (reference.violation is None)
    if engine.violation is not None:
        engine_state, engine_trace = engine.violation
        reference_state, reference_trace = reference.violation
        # BFS layer structure forces equal (minimal) counterexample
        # lengths; the violating state may differ only if several
        # violations share a layer.
        assert len(engine_trace) == len(reference_trace)
        assert_trace_reaches(automaton_factory(), engine_trace, engine_state)
    return engine, reference


def assert_trace_reaches(automaton, trace, target):
    """The trace must be executable and able to end in ``target``."""
    states = {automaton.initial_state()}
    for action in trace:
        states = {
            successor
            for state in states
            for successor in automaton.transitions(state, action)
        }
        assert states, f"action {action} not enabled anywhere along trace"
    assert target in states


class TestToyDifferential:
    def test_counter(self):
        assert_equivalent(lambda: Counter(25))

    def test_counter_violation(self):
        engine, _ = assert_equivalent(
            lambda: Counter(10), invariant=lambda s: s != 3
        )
        assert engine.violation[0] == 3
        assert len(engine.violation[1]) == 7

    def test_violation_at_start(self):
        engine, _ = assert_equivalent(
            lambda: Counter(5), invariant=lambda s: s != 5
        )
        assert engine.violation == (5, ())

    def test_nondet(self):
        assert_equivalent(Nondet)

    def test_echo_with_environment(self):
        def environment(s):
            return [ping(len(s))] if len(s) < 4 else []

        assert_equivalent(Echo, environment=environment)

    def test_toy_composition(self):
        def factory():
            return Composition([Echo(), Forwarder()])

        def environment(s):
            return [ping(len(s[0]))] if len(s[0]) < 3 else []

        engine, _ = assert_equivalent(factory, environment=environment)
        assert ((), ()) in engine.states

    def test_toy_composition_memoized(self):
        def factory():
            return Composition([with_memo(Echo()), with_memo(Forwarder())])

        def environment(s):
            return [ping(len(s[0]))] if len(s[0]) < 3 else []

        assert_equivalent(factory, environment=environment)

    def test_max_states_truncation(self):
        engine, reference = assert_equivalent(
            lambda: Counter(100), max_states=10
        )
        assert engine.truncated
        # Budget contract: the search stops at the budget, immediately.
        assert len(engine.states) == 10

    def test_max_depth_truncation(self):
        engine, _ = assert_equivalent(lambda: Counter(100), max_depth=5)
        assert engine.truncated
        assert engine.states == {100, 99, 98, 97, 96, 95}


ZOO = {
    "abp": (alternating_bit_protocol, 1),
    "sliding-window-2": (lambda: sliding_window_protocol(2), 1),
    "stenning": (stenning_protocol, 1),
    "fragmenting": (lambda: fragmenting_protocol(chunk=1, max_fragments=2), 1),
    "eager": (eager_protocol, 1),
    "direct": (direct_protocol, 1),
    "abp-reorder-2": (alternating_bit_protocol, 2),
    "mod4-reorder-2": (lambda: modulo_stenning_protocol(4), 2),
}


class TestZooDifferential:
    @pytest.mark.parametrize("name", sorted(ZOO))
    def test_closed_system_equivalence(self, name):
        protocol_factory, reorder_depth = ZOO[name]

        def build():
            composition, invariant, _ = build_closed_system(
                protocol_factory(),
                messages=2,
                capacity=2,
                reorder_depth=reorder_depth,
            )
            return composition, invariant

        composition, invariant = build()
        engine = explore_engine(
            composition, invariant=invariant, max_depth=10_000_000
        )
        ref_composition, ref_invariant = build()
        reference = reference_explore(
            ref_composition,
            invariant=ref_invariant,
            max_depth=10_000_000,
        )
        assert engine.states == reference.states
        assert engine.truncated == reference.truncated
        assert (engine.violation is None) == (reference.violation is None)
        if engine.violation is not None:
            state, trace = engine.violation
            assert len(trace) == len(reference.violation[1])
            replay_composition, _ = build()
            assert_trace_reaches(replay_composition, trace, state)

    def test_budget_truncation_equivalence(self):
        def build():
            composition, invariant, _ = build_closed_system(
                sliding_window_protocol(2), messages=2, capacity=2
            )
            return composition, invariant

        composition, invariant = build()
        engine = explore_engine(
            composition, invariant=invariant, max_states=500
        )
        ref_composition, ref_invariant = build()
        reference = reference_explore(
            ref_composition,
            invariant=ref_invariant,
            max_states=500,
        )
        assert engine.truncated and reference.truncated
        assert len(engine.states) == 500
        assert engine.states == reference.states


class TestCompositionCaches:
    """The satellite caches: name->index, task_of owners, memoization."""

    def test_component_index_lookup(self):
        composition = Composition([Echo(), Forwarder()])
        assert composition.component_index("echo") == 0
        assert composition.component_index("forwarder") == 1
        with pytest.raises(KeyError, match="found 0"):
            composition.component_index("missing")

    def test_component_index_duplicate_names(self):
        first, second = Counter(3, tag="a"), Counter(3, tag="b")
        first.name = second.name = "twin"
        composition = Composition([first, second])
        with pytest.raises(KeyError, match="found 2"):
            composition.component_index("twin")

    def test_task_of_owner_map(self):
        from repro.ioa.actions import Action

        composition = Composition([Echo(), Forwarder()])
        assert composition.task_of(Action("pong", None, 1)) == (
            0,
            ("echo", "main"),
        )
        assert composition.task_of(Action("ack", None, 1)) == (
            1,
            ("forwarder", "main"),
        )
        with pytest.raises(KeyError):
            composition.task_of(Action("ping", None, 1))

    def test_memoized_stepping_matches_uncached(self):
        plain = Composition([Echo(), Forwarder()])
        cached = Composition([with_memo(Echo()), with_memo(Forwarder())])
        state = ((1, 2), (7,))
        from repro.ioa.actions import Action

        for action in [
            Action("pong", None, 1),
            Action("pong", None, 9),
            Action("ack", None, 7),
            Action("ping", None, 3),
        ]:
            for _ in range(2):  # second round hits the caches
                assert cached.transitions(state, action) == plain.transitions(
                    state, action
                )
                assert tuple(cached.enabled_local_actions(state)) == tuple(
                    plain.enabled_local_actions(state)
                )


class TestInternTable:
    def test_dense_first_come_ids(self):
        table = InternTable()
        assert table.intern("a") == 0
        assert table.intern("b") == 1
        assert table.intern("a") == 0
        assert table.values == ["a", "b"]
        assert len(table) == 2
        assert "a" in table and "c" not in table
        assert table.get("c") is None


class TestFuzzSeedDifferential:
    """Fuzz-discovered sub-seeds become differential fixtures.

    A short pinned campaign donates its per-run :class:`SubSeeds`; each
    one reconstructs the exact seeded permissive-channel adversary the
    fuzzer drove, closed with a scripted environment.  Both engines
    must then agree on the reachable-state set under a shared
    ``max_states`` budget (permissive counters grow without bound under
    eager retransmission, so the budget is what keeps the space
    finite -- this leans on the truncation-equivalence contract).
    """

    @staticmethod
    def discovered_subseeds():
        from repro.conformance import FuzzConfig, fuzz_campaign

        campaign = fuzz_campaign(
            "alternating_bit", "fifo", 11, FuzzConfig(runs=2, shrink=False)
        )
        return [run.subseeds for run in campaign.runs]

    @staticmethod
    def build_fuzz_seeded_system(subseeds):
        from repro.alphabets import MessageFactory
        from repro.analysis import ScriptedEnvironment
        from repro.conformance import FuzzConfig, resolve_fuzz_channel

        config = FuzzConfig()
        family = resolve_fuzz_channel("fifo")

        def start(seed):
            return family.start(
                seed,
                config.loss_rate,
                config.reorder_window,
                config.horizon,
                config.capacity,
            )

        transmitter, receiver = alternating_bit_protocol().build(
            "t", "r", ghost_uids=False
        )
        batch = MessageFactory(label="v").fresh_many(2)
        composition = Composition(
            [
                transmitter,
                receiver,
                family.automaton("t", "r"),
                family.automaton("r", "t"),
                ScriptedEnvironment("t", "r", batch),
            ],
            name="fuzz-seeded",
        )
        stations = composition.initial_state()
        seeded = stations[:2] + (
            start(subseeds.channel_tr),
            start(subseeds.channel_rt),
            stations[4],
        )
        return composition, seeded

    @pytest.mark.parametrize("index", [0, 1])
    def test_engines_agree_on_fuzz_discovered_seed(self, index):
        subseeds = self.discovered_subseeds()[index]
        composition, start = self.build_fuzz_seeded_system(subseeds)
        engine = explore_engine(
            composition, max_states=400, initial_state=start
        )
        composition, start = self.build_fuzz_seeded_system(subseeds)
        reference = reference_explore(
            composition, max_states=400, initial_state=start
        )
        assert len(engine.states) > 1
        assert engine.states == reference.states
        assert engine.truncated == reference.truncated
        assert (engine.violation is None) == (reference.violation is None)

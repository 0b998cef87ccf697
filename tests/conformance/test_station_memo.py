"""The campaign-scoped station memo.

Each fuzz campaign or load run resolves its registry pair once per
process (:func:`repro.conformance.harness.resolve_pair`): one station
pair, each station with a :class:`~repro.ioa.engine.interning.SliceTable`, shared
by every run.  The memo may only ever answer what the station would
have computed, so memoised sessions must equal memo-free ones, and it
must die with the run that built it.
"""

from __future__ import annotations

import gc
import os
import random
import weakref

import pytest

from repro.conformance import FuzzConfig, SubSeeds, fuzz_campaign, pool
from repro.conformance.harness import build_system, resolve_pair
from repro.conformance.registry import FUZZ_CHANNELS, FUZZ_PROTOCOLS
from repro.impossibility.crash_engine import CrashImpossibilityEngine
from repro.impossibility.header_engine import BoundedHeaderEngine
from repro.ioa import run_to_quiescence
from repro.protocols import alternating_bit_protocol
from repro.sim import DataLinkSystem, Session
from repro.sim.load import LoadConfig, run_load, with_load_mix

LOAD = with_load_mix(LoadConfig(sessions=6, messages=2), "drop-flood")


class TestOneResolvePerProcess:
    """The registry factory runs once per serial schedule or worker."""

    @pytest.fixture
    def calls(self, tmp_path, monkeypatch):
        """Pids of the processes that called the ABP factory."""
        log = tmp_path / "calls"
        log.touch()
        original = FUZZ_PROTOCOLS["alternating_bit"]

        def counted():
            with open(log, "a") as handle:
                handle.write(f"{os.getpid()}\n")
            return original()

        monkeypatch.setitem(FUZZ_PROTOCOLS, "alternating_bit", counted)
        return lambda: [int(pid) for pid in log.read_text().split()]

    def test_serial_campaign(self, calls):
        fuzz_campaign("alternating_bit", "fifo", 3, FuzzConfig(runs=5))
        assert calls() == [os.getpid()]

    def test_serial_load_run(self, calls):
        run_load("alternating_bit", "nonfifo", 3, LOAD)
        assert calls() == [os.getpid()]

    @pytest.mark.parametrize("workload", ["fuzz", "load"])
    def test_one_per_pool_worker(self, calls, workload):
        if workload == "fuzz":
            campaign = fuzz_campaign(
                "alternating_bit", "fifo", 3, FuzzConfig(runs=6), workers=2
            )
            mode = campaign.report().details["pool"]["mode"]
        else:
            mode = run_load(
                "alternating_bit", "nonfifo", 3, LOAD, workers=2
            ).pool["mode"]
        assert mode == "fork"
        pids = calls()
        assert os.getpid() not in pids
        assert 1 <= len(pids) <= 2
        assert len(set(pids)) == len(pids)


@pytest.mark.parametrize("channel", ["fifo", "nonfifo"])
@pytest.mark.parametrize("protocol", sorted(FUZZ_PROTOCOLS))
def test_memoised_sessions_equal_memo_free_ones(protocol, channel):
    # A small step budget: sliding_window over nonfifo can livelock, and
    # a 60,000-step session's channel states take gigabytes to retain.
    config = FuzzConfig(messages=3, shrink=False, max_steps=2_000)
    memoised = resolve_pair(protocol, channel)
    resolved_system, start = memoised
    stations = (resolved_system.transmitter, resolved_system.receiver)
    family = FUZZ_CHANNELS[channel]
    plain_system = DataLinkSystem.build(
        resolved_system.protocol,
        family.automaton("t", "r"),
        family.automaton("r", "t"),
    )
    plain = (plain_system, start)
    master = random.Random(f"{protocol}/{channel}")
    # Every system shares the memoised stations; its channels never memoise.
    system = build_system(
        protocol, channel, SubSeeds.derive(master), config, resolved=memoised
    )
    assert (system.transmitter, system.receiver) == stations
    assert [c.table is not None for c in system.composition.components] == [
        True,
        True,
        False,
        False,
    ]
    assert plain_system.transmitter.table is None
    assert plain_system.receiver.table is None
    for _ in range(20):
        subseeds = SubSeeds.derive(master)
        runs = [
            Session.from_spec(
                protocol, channel, subseeds, config, resolved=resolved
            ).run()
            for resolved in (memoised, plain)
        ]
        with_memo, without = runs
        assert with_memo.fragment == without.fragment
        assert with_memo.behavior == without.behavior
        assert with_memo.quiescent == without.quiescent
    assert stations[0].table.steps, "the memo was never consulted"


@pytest.mark.parametrize("engine", [CrashImpossibilityEngine, BoundedHeaderEngine])
def test_engine_built_stations_carry_no_memo(engine):
    system = engine(alternating_bit_protocol()).system
    assert [c.table for c in system.composition.components] == [None] * 4


def test_memo_dies_with_its_run(monkeypatch):
    memos = []

    def recorded(protocol, channel):
        resolved = resolve_pair(protocol, channel)
        for station in (resolved[0].transmitter, resolved[0].receiver):
            memos.append((weakref.ref(station.table), len(station.table.steps)))
        return resolved

    monkeypatch.setattr(pool, "resolve_pair", recorded)
    first = run_load("alternating_bit", "nonfifo", 5, LOAD)
    gc.collect()
    assert len(memos) == 2
    assert all(memo() is None for memo, _ in memos)
    second = run_load("alternating_bit", "nonfifo", 5, LOAD)
    gc.collect()
    # The second run resolved anew, from empty memos, and they died too.
    assert len(memos) == 4
    assert [size for _, size in memos] == [0, 0, 0, 0]
    assert all(memo() is None for memo, _ in memos)
    assert first.report().counters == second.report().counters


@pytest.mark.parametrize("channel", ["nonfifo", "bounded_nonfifo"])
def test_delivered_packets_probe_the_tables_by_identity(monkeypatch, channel):
    # Every session of the load run steps the same two channels and the
    # same stations' tables, so each channel must enumerate the very
    # receive_pkt object a table stored: a probe with an equal copy
    # pays a field-by-field comparison.  Tables are probed by action
    # when the fair kernel steps a station and when an input steps the
    # composition.
    from repro.channels.actions import RECEIVE_PKT
    from repro.ioa.composition import ComponentSlices, Composition

    probes = []

    def probe(components, action):
        for i in components.family_owners.get(action.key, ()):
            table = components.components[i].table
            if table is not None and action.name == RECEIVE_PKT:
                aid = table.actions._ids.get(action)
                if aid is not None:
                    probes.append(table.actions.values[aid] is action)

    transitions = Composition.transitions
    advance = ComponentSlices.advance

    def recorded(self, state, action):
        probe(self, action)
        return transitions(self, state, action)

    def stepped(self, state, action):
        probe(self.automaton, action)
        return advance(self, state, action)

    monkeypatch.setattr(Composition, "transitions", recorded)
    monkeypatch.setattr(ComponentSlices, "advance", stepped)
    run_load("alternating_bit", channel, 5, LOAD)
    assert probes and all(probes)


@pytest.mark.parametrize("protocol", ["alternating_bit", "sliding_window"])
def test_warm_id_caches_step_like_the_reference(monkeypatch, protocol):
    # Two load runs share one resolve_pair, so the second steps its
    # stations by id from tables and group caches the first filled.
    # Every fair run of both must equal the reference loop's.
    from repro.sim import session as session_module
    from tests.ioa.test_fair_kernel import assert_kernel_matches

    resolved = resolve_pair(protocol, "nonfifo")
    monkeypatch.setattr(pool, "resolve_pair", lambda *names: resolved)
    kernel = session_module.run_to_quiescence
    checked = []

    def checked_kernel(automaton, state, max_steps=100_000, **kwargs):
        outcome = assert_kernel_matches(automaton, state, max_steps=max_steps)
        checked.append(outcome)
        return kernel(automaton, state, max_steps=max_steps, **kwargs)

    def sizes():
        # Slices, kept steps and cached task groups, per station.
        return [
            (len(table), sum(map(len, table.steps)), len(table.slot_cache(i)))
            for i, table in enumerate(
                station.table
                for station in (resolved[0].transmitter, resolved[0].receiver)
            )
        ]

    monkeypatch.setattr(session_module, "run_to_quiescence", checked_kernel)
    first = run_load(protocol, "nonfifo", 7, LOAD).report().counters
    cold = sizes()
    del checked[:]
    second = run_load(protocol, "nonfifo", 7, LOAD).report().counters
    assert second == first
    assert checked and all(outcome[0] != "refused" for outcome in checked)
    # Warm: the second run met no slice, step or task group anew.
    assert sizes() == cold


def test_tabled_owner_refusal_raises_warm_and_cold():
    from repro.ioa import Composition, Hidden, TransitionError
    from repro.ioa.automaton import with_memo
    from tests.ioa.test_fair_kernel import Jammed, assert_kernel_matches
    from tests.ioa.toys import Echo

    jammed = with_memo(Jammed())
    for automaton in (
        Composition([jammed, Echo()]),
        Hidden(Composition([jammed, with_memo(Echo())]), []),
    ):
        for _ in range(2):  # cold, then from the table's cached refusal
            outcome = assert_kernel_matches(automaton, automaton.initial_state())
            assert outcome[0] == "refused"
        with pytest.raises(TransitionError):
            run_to_quiescence(automaton, automaton.initial_state())
    assert jammed.table.steps[0], "the refusal was never kept"

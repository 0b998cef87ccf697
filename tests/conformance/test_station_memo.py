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
from repro.conformance.registry import FUZZ_PROTOCOLS
from repro.impossibility.crash_engine import CrashImpossibilityEngine
from repro.impossibility.header_engine import BoundedHeaderEngine
from repro.protocols import alternating_bit_protocol
from repro.sim import Session
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
    registry_protocol, stations, build_channel = memoised
    plain = (registry_protocol, registry_protocol.build(), build_channel)
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
    assert all(station.table is None for station in plain[1])
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
        for station in resolved[1]:
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
    # Channels are rebuilt for every session while the stations' tables
    # serve the whole load run, so each channel must enumerate the very
    # receive_pkt object a table stored: a probe with an equal copy
    # pays a field-by-field comparison.
    from repro.channels.actions import RECEIVE_PKT
    from repro.ioa.engine.interning import SliceTable

    probes = []
    successors_of = SliceTable.successors_of

    def recorded(self, value, action):
        if action.name == RECEIVE_PKT:
            aid = self.actions._ids.get(action)
            if aid is not None:
                probes.append(self.actions.values[aid] is action)
        return successors_of(self, value, action)

    monkeypatch.setattr(SliceTable, "successors_of", recorded)
    run_load("alternating_bit", channel, 5, LOAD)
    assert probes and all(probes)

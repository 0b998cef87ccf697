"""Differential tests: the streaming monitors against the old scans.

:mod:`tests.conformance.reference_oracles` keeps every DL/PL predicate
as the fresh scan it used to be, and the oracle pass as it used to be
(one scan per predicate, then a binary search for the earliest
violating prefix).  The contract:

* every monitor, fed one event at a time, returns the reference's
  ``PropertyResult`` (verdict, name and witness) on every prefix, and
  the one-shot forms return it on the whole sequence;
* a prefix-scope monitor's ``first + 1`` is the brute-force earliest
  violating prefix;
* ``check_execution`` returns the reference pass's findings (order,
  witness, ``prefix_length``) and ``checks`` on the executions behind
  every fuzz pin and across the protocol/channel/fault-mix matrix, and
  a ``target=`` check returns exactly the full check's findings for
  that oracle.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.alphabets import Message, Packet
from repro.channels import properties as pl
from repro.channels import crash, fail, receive_pkt, send_pkt, wake
from repro.conformance import (
    DL_ORACLES,
    FUZZ_PROTOCOLS,
    PL_ORACLES,
    STAB_ORACLES,
    FuzzConfig,
    SubSeeds,
    build_script,
    build_system,
    check_execution,
    execute_script,
    script_admissible,
    with_mix,
)
from repro.conformance.harness import resolve_pair
from repro.datalink import properties as dl
from repro.datalink import receive_msg, send_msg

from . import reference_oracles as ref
from .test_fuzz_pins import CONFIGURED_PINS, PINS

T, R = "t", "r"
MESSAGES = [Message(i) for i in range(3)]
PACKETS = [Packet(i % 2, (), i) for i in range(3)]

#: (name, one-shot form, reference, endpoint pairs, prefix scope).
PREDICATES = [
    ("DL-well-formed", dl.dl_well_formed, ref.dl_well_formed, "dl", True),
    ("DL1", dl.dl1, ref.dl1, "dl", False),
    ("DL2", dl.dl2, ref.dl2, "dl", True),
    ("DL3", dl.dl3, ref.dl3, "dl", True),
    ("DL4", dl.dl4, ref.dl4, "dl", True),
    ("DL5", dl.dl5, ref.dl5, "dl", True),
    ("DL6", dl.dl6, ref.dl6, "dl", True),
    ("DL7", dl.dl7, ref.dl7, "dl", False),
    ("DL8", dl.dl8, ref.dl8, "dl", False),
    ("PL-well-formed", pl.pl_well_formed, ref.pl_well_formed, "pl", True),
    ("PL1", pl.pl1, ref.pl1, "pl", True),
    ("PL2", pl.pl2, ref.pl2, "pl", True),
    ("PL3", pl.pl3, ref.pl3, "pl", True),
    ("PL4", pl.pl4, ref.pl4, "pl", True),
    ("PL5", pl.pl5, ref.pl5, "pl", True),
    ("PL6-finite", pl.pl6_finite_diagnostic, ref.pl6_finite_diagnostic, "pl", False),
]
ENDPOINTS = {"dl": [(T, R)], "pl": [(T, R), (R, T)]}
MONITORS = {**dl.MONITORS, **pl.MONITORS}

#: Both directions, messages and packets, weighted so that long
#: well-formed stretches are common and every predicate gets to fail.
ALPHABET = (
    [wake(T, R), wake(R, T)] * 3
    + [fail(T, R), fail(R, T), crash(T, R), crash(R, T)]
    + [send_msg(T, R, m) for m in MESSAGES] * 3
    + [receive_msg(T, R, m) for m in MESSAGES] * 3
    + [send_msg(R, T, MESSAGES[0]), receive_msg(R, T, MESSAGES[1])]
    + [send_pkt(a, b, p) for a, b in ((T, R), (R, T)) for p in PACKETS] * 2
    + [receive_pkt(a, b, p) for a, b in ((T, R), (R, T)) for p in PACKETS] * 2
)


def earliest_violating_prefix(check, schedule, a, b):
    """Brute force: the shortest prefix on which ``check`` fails."""
    return next(
        n
        for n in range(len(schedule) + 1)
        if not check(schedule[:n], a, b).holds
    )


def assert_monitors_agree(schedule):
    for name, one_shot, reference, layer, prefix_scope in PREDICATES:
        for a, b in ENDPOINTS[layer]:
            expected = reference(schedule, a, b)
            assert one_shot(schedule, a, b) == expected, (name, schedule)
            monitor = MONITORS[name](a, b)
            assert monitor.result() == reference([], a, b)
            for index, action in enumerate(schedule):
                if (action.name, action.direction) in monitor.keys:
                    monitor.observe(index, action)
                assert monitor.result() == reference(
                    schedule[: index + 1], a, b
                ), (name, schedule[: index + 1])
            if prefix_scope and not expected.holds:
                assert monitor.first + 1 == earliest_violating_prefix(
                    reference, schedule, a, b
                ), (name, schedule)


def assert_admissibility_agrees(schedule):
    expected = all(
        check(schedule, T, R).holds
        for check in (ref.dl_well_formed, ref.dl1, ref.dl2, ref.dl3)
    )
    assert script_admissible(schedule, T, R) == expected


@given(st.lists(st.sampled_from(ALPHABET), max_size=18))
@settings(max_examples=300, deadline=None)
def test_hypothesis_traces_agree(schedule):
    assert_monitors_agree(schedule)
    assert_admissibility_agrees(schedule)


def test_random_traces_agree_and_reach_every_verdict():
    rng = random.Random(22)
    violated = set()
    for _ in range(600):
        schedule = [rng.choice(ALPHABET) for _ in range(rng.randrange(24))]
        assert_monitors_agree(schedule)
        assert_admissibility_agrees(schedule)
        for name, _, reference, layer, _ in PREDICATES:
            for a, b in ENDPOINTS[layer]:
                if not reference(schedule, a, b).holds:
                    violated.add(name)
    assert violated == {name for name, *_ in PREDICATES}


class TestTraps:
    """The three places where a naive streaming reading goes wrong."""

    def test_well_formedness_witness_prefers_the_transmitter(self):
        # The receiver offends first (event 2), the transmitter later
        # (event 3): the witness names the transmitter, but the
        # earliest violating prefix ends at the receiver's event.
        schedule = [wake(T, R), wake(R, T), wake(R, T), wake(T, R)]
        monitor = MONITORS["DL-well-formed"](T, R)
        result = monitor.judge(schedule)
        assert result == ref.dl_well_formed(schedule, T, R)
        assert result.witness.startswith("transmitter event 3")
        assert monitor.first + 1 == 3

    def test_second_wake_orphans_the_open_intervals_sends(self):
        # The sends at 1 and 2 lie in a working interval until the
        # second wake drops it; the witness names the first of them.
        schedule = [
            wake(T, R),
            send_msg(T, R, MESSAGES[0]),
            send_msg(T, R, MESSAGES[1]),
            wake(T, R),
        ]
        assert ref.dl2(schedule[:3], T, R).holds
        monitor = MONITORS["DL2"](T, R)
        result = monitor.judge(schedule)
        assert result == ref.dl2(schedule, T, R)
        assert "event 1" in result.witness
        assert monitor.first + 1 == 4

    def test_late_send_creates_an_earlier_fifo_inversion(self):
        # m2 is received (0) before it is sent (3); once sent, its
        # receive leads the order, so m0's receive (2) is inverted.
        m0, m2 = MESSAGES[0], MESSAGES[2]
        schedule = [
            receive_msg(T, R, m2),
            send_msg(T, R, m0),
            receive_msg(T, R, m0),
            send_msg(T, R, m2),
        ]
        assert ref.dl6(schedule[:3], T, R).holds
        monitor = MONITORS["DL6"](T, R)
        result = monitor.judge(schedule)
        assert result == ref.dl6(schedule, T, R)
        assert "received at event 2" in result.witness
        assert monitor.first + 1 == 4


# ----------------------------------------------------------------------
# check_execution against the reference pass
# ----------------------------------------------------------------------

ORACLE_NAMES = [o.name for o in DL_ORACLES + PL_ORACLES + STAB_ORACLES]


def executions(protocol, channel, seed, config):
    """The (system, result) of every run of one campaign."""
    resolved = resolve_pair(protocol, channel)
    master = random.Random(seed)
    for _ in range(config.runs):
        subseeds = SubSeeds.derive(master)
        system = build_system(protocol, channel, subseeds, config, resolved)
        script = build_script(system, subseeds, config)
        yield system, execute_script(system, script.actions, subseeds, config)


def assert_checks_agree(system, result, config):
    found = check_execution(system, result, config)
    expected = ref.check_execution(system, result, config)
    assert list(found) == list(expected)
    assert found.checks == expected.checks
    for name in ORACLE_NAMES:
        targeted = check_execution(system, result, config, target=name)
        assert list(targeted) == [v for v in found if v.oracle == name]


PIN_CAMPAIGNS = {
    "-".join(map(str, case)): (case[0], case[1], case[3], FuzzConfig(runs=case[2]))
    for case in PINS
}
PIN_CAMPAIGNS.update(
    {name: campaign for name, (campaign, _) in CONFIGURED_PINS.items()}
)


@pytest.mark.parametrize("name", sorted(PIN_CAMPAIGNS))
def test_fuzz_pin_executions_match_the_reference_pass(name):
    protocol, channel, seed, config = PIN_CAMPAIGNS[name]
    for system, result in executions(protocol, channel, seed, config):
        assert_checks_agree(system, result, config)


@pytest.mark.parametrize("mix", ["default", "crash-storm", "reorder-flood"])
@pytest.mark.parametrize("channel", ["fifo", "nonfifo", "bounded_nonfifo"])
def test_matrix_executions_match_the_reference_pass(channel, mix):
    config = with_mix(FuzzConfig(runs=2, max_steps=4000), mix)
    for protocol in sorted(FUZZ_PROTOCOLS):
        for system, result in executions(protocol, channel, 9, config):
            assert_checks_agree(system, result, config)

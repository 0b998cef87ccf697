"""Tests for the PL / PL-FIFO schedule modules and channel conformance.

Includes the executable content of Lemma 6.1 (the permissive channels
are physical channels: their fair behaviors satisfy the specification)
and of Lemma 6.2 (sensible failure-free PL schedules are behaviors of
C-bar).
"""

from __future__ import annotations

import pytest

from repro.alphabets import Packet
from repro.channels import (
    DeliverySet,
    PermissiveChannel,
    PermissiveChannelState,
    PermissiveFifoChannel,
    pl_fifo_module,
    pl_module,
    receive_pkt,
    send_pkt,
    wake,
)
from repro.channels.delivery_set import random_reordering
from repro.ioa import ExecutionFragment, fair_extension

T, R = "t", "r"


def drive_channel(channel, count, delivery=None):
    """Send ``count`` packets, letting the channel deliver fairly from
    the start state holding ``delivery`` (FIFO, loss-free if None)."""
    start = channel.initial_state()
    if delivery is not None:
        start = PermissiveChannelState(delivery=delivery)
    fragment = ExecutionFragment.initial(start)
    inputs = [wake(T, R)] + [
        send_pkt(T, R, Packet(f"h{i}", (), uid=i))
        for i in range(1, count + 1)
    ]
    return fair_extension(channel, fragment, inputs=inputs)


class TestModuleShape:
    def test_pl_signature(self):
        module = pl_module(T, R)
        assert module.signature.is_input(send_pkt(T, R, Packet("h")))
        assert module.signature.is_output(receive_pkt(T, R, Packet("h")))

    def test_vacuous_when_ill_formed(self):
        from repro.channels import fail

        module = pl_module(T, R)
        # Receive-before-send violates PL4, but the sequence is ill-
        # formed (fail before wake), so membership is vacuous.
        bogus = [fail(T, R), receive_pkt(T, R, Packet("h", (), uid=1))]
        verdict = module.check(bogus)
        assert verdict.in_module and verdict.vacuous

    def test_guarantee_enforced_when_assumptions_hold(self):
        module = pl_module(T, R)
        p = Packet("h", (), uid=1)
        verdict = module.check([wake(T, R), receive_pkt(T, R, p)])
        assert not verdict.in_module
        assert any(f.name == "PL4" for f in verdict.failures)

    def test_fifo_module_adds_pl5(self):
        p1, p2 = Packet("a", (), uid=1), Packet("b", (), uid=2)
        reordered = [
            wake(T, R),
            send_pkt(T, R, p1),
            send_pkt(T, R, p2),
            receive_pkt(T, R, p2),
            receive_pkt(T, R, p1),
        ]
        assert pl_module(T, R).contains(reordered)
        assert not pl_fifo_module(T, R).contains(reordered)


class TestLemma61:
    """Fair behaviors of C-bar / C-hat satisfy PL / PL-FIFO."""

    @pytest.mark.parametrize("seed", range(5))
    def test_cbar_solves_pl(self, seed):
        channel = PermissiveChannel(T, R)
        fragment = drive_channel(channel, 10, random_reordering(seed, 0.3, 4, 100))
        behavior = fragment.behavior(channel.signature)
        assert pl_module(T, R).contains(behavior)

    @pytest.mark.parametrize("seed", range(5))
    def test_chat_solves_pl_fifo(self, seed):
        from repro.channels.delivery_set import random_lossy_fifo

        channel = PermissiveFifoChannel(T, R)
        fragment = drive_channel(channel, 10, random_lossy_fifo(seed, 0.3, 100))
        behavior = fragment.behavior(channel.signature)
        assert pl_fifo_module(T, R).contains(behavior)

    def test_cbar_reordering_behavior_still_in_pl(self):
        channel = PermissiveChannel(T, R)
        fragment = drive_channel(channel, 2, DeliverySet((2, 1), 2))
        behavior = fragment.behavior(channel.signature)
        assert pl_module(T, R).contains(behavior)
        assert not pl_fifo_module(T, R).contains(behavior)


class TestLemma62:
    """Sensible failure-free PL schedules are fair behaviors of C-bar.

    Executable slice: for any delivery pattern expressed as a delivery
    set, driving C-bar with that start state reproduces the pattern.
    """

    @pytest.mark.parametrize(
        "pairs",
        [
            [(1, 1), (2, 2), (3, 3)],
            [(3, 1), (1, 2), (2, 3)],
            [(2, 1), (3, 2)],  # packet 1 lost
        ],
    )
    def test_target_schedule_realized(self, pairs):
        delivery = DeliverySet.from_pairs(pairs)
        channel = PermissiveChannel(T, R)
        pkts = {i: Packet(f"h{i}", (), uid=i) for i in range(1, 4)}
        state = PermissiveChannelState(delivery=delivery)
        for i in sorted(pkts):
            state = channel.step(state, send_pkt(T, R, pkts[i]))
        received = []
        while True:
            actions = list(channel.enabled_local_actions(state))
            if not actions:
                break
            received.append(actions[0].payload.uid)
            state = channel.step(state, actions[0])
        expected = [i for i, _ in sorted(pairs, key=lambda p: p[1])]
        # Only slots whose source was sent can fire.
        expected = [i for i in expected if i <= 3]
        assert received[: len(expected)] == expected

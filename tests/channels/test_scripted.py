"""Tests for scripted channel adversaries: seeded start states.

A seeded adversary is no channel of its own: it is a permissive
channel's start state holding a seeded delivery set.
"""

from __future__ import annotations


from repro.alphabets import Packet
from repro.channels import (
    PermissiveChannel,
    PermissiveChannelState,
    PermissiveFifoChannel,
    random_lossy_fifo,
    random_reordering,
    send_pkt,
)


class TestPerfectFifo:
    def test_no_losses(self):
        channel = PermissiveFifoChannel("t", "r")
        state = channel.initial_state()
        pkts = [Packet(f"h{i}", (), uid=i) for i in range(1, 6)]
        for packet in pkts:
            state = channel.step(state, send_pkt("t", "r", packet))
        delivered = []
        while True:
            actions = list(channel.enabled_local_actions(state))
            if not actions:
                break
            delivered.append(actions[0].payload)
            state = channel.step(state, actions[0])
        assert delivered == pkts


class TestLossyFifo:
    def test_determinism(self):
        a = PermissiveChannelState(delivery=random_lossy_fifo(5, 0.5))
        b = PermissiveChannelState(delivery=random_lossy_fifo(5, 0.5))
        assert a == b

    def test_monotone(self):
        state = PermissiveChannelState(delivery=random_lossy_fifo(1, 0.5))
        assert state.delivery.is_monotone()


class TestReordering:
    def test_not_fifo_for_wide_window(self):
        assert any(
            not random_reordering(seed, 0.0, 8, 64).is_monotone()
            for seed in range(10)
        )

    def test_directions_independent(self):
        tr = PermissiveChannel("t", "r")
        rt = PermissiveChannel("r", "t")
        assert tr.src == "t" and rt.src == "r"
        assert tr.signature.all_families.isdisjoint(
            rt.signature.all_families
        )

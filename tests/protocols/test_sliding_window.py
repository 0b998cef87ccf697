"""Tests for the Go-Back-N sliding-window protocol."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.alphabets import Message, MessageFactory, Packet
from repro.channels import PermissiveChannelState, random_lossy_fifo
from repro.datalink import dl_module
from repro.protocols.sliding_window import (
    SwReceiver,
    SwTransmitter,
    sliding_window_protocol,
)
from repro.sim import delivery_stats, fifo_system

from ..conftest import deliver_all

M = [Message(i) for i in range(10)]


class TestTransmitterLogic:
    def setup_method(self):
        self.logic = SwTransmitter(window=2, modulus=3)
        self.core = self.logic.on_wake(self.logic.initial_core())

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            SwTransmitter(window=0)
        with pytest.raises(ValueError):
            SwTransmitter(window=3, modulus=3)

    def test_window_limits_in_flight(self):
        core = self.core
        for m in M[:4]:
            core = self.logic.on_send_msg(core, m)
        sends = list(self.logic.enabled_sends(core))
        assert len(sends) == 2  # window of 2, not 4
        assert sends[0] == Packet(("DATA", 0), (M[0],))
        assert sends[1] == Packet(("DATA", 1), (M[1],))

    def test_cumulative_ack_advances_window(self):
        core = self.core
        for m in M[:4]:
            core = self.logic.on_send_msg(core, m)
        core = self.logic.on_packet(core, Packet(("ACK", 2)))
        assert core.base_seq == 2
        assert core.pending == tuple(M[2:4])
        sends = list(self.logic.enabled_sends(core))
        assert sends[0] == Packet(("DATA", 2), (M[2],))

    def test_stale_ack_ignored(self):
        core = self.logic.on_send_msg(self.core, M[0])
        core = self.logic.on_packet(core, Packet(("ACK", 0)))
        assert core.base_seq == 0 and core.pending == (M[0],)

    def test_ack_beyond_window_ignored(self):
        core = self.logic.on_send_msg(self.core, M[0])
        # Claims 2 slots acked while only 1 is pending.
        core = self.logic.on_packet(core, Packet(("ACK", 2)))
        assert core.base_seq == 0 and core.pending == (M[0],)

    def test_header_space_size(self):
        assert len(self.logic.header_space()) == 3


class TestReceiverLogic:
    def setup_method(self):
        self.logic = SwReceiver(window=2, modulus=3)
        self.core = self.logic.on_wake(self.logic.initial_core())

    def test_in_order_accepted(self):
        core = self.logic.on_packet(self.core, Packet(("DATA", 0), (M[0],)))
        assert core.inbox == (M[0],)
        assert core.expected == 1
        assert core.pending_acks == (1,)  # cumulative: next expected

    def test_out_of_order_discarded_but_acked(self):
        core = self.logic.on_packet(self.core, Packet(("DATA", 1), (M[1],)))
        assert core.inbox == ()
        assert core.pending_acks == (0,)  # still expecting 0

    def test_wraparound(self):
        core = self.core
        for i, m in enumerate(M[:4]):
            core = self.logic.on_packet(
                core, Packet(("DATA", i % 3), (m,))
            )
        assert core.inbox == tuple(M[:4])
        assert core.expected == 1  # 4 mod 3


class TestEndToEnd:
    @pytest.mark.parametrize("window", [1, 2, 4, 8])
    def test_in_order_delivery(self, window, factory):
        system = fifo_system(sliding_window_protocol(window))
        messages = factory.fresh_many(8)
        fragment = deliver_all(system, messages)
        delivered = [
            a.payload for a in fragment.actions if a.name == "receive_msg"
        ]
        assert delivered == list(messages)
        assert dl_module("t", "r").contains(system.behavior(fragment))

    @pytest.mark.parametrize("seed", range(4))
    def test_delivery_under_loss(self, seed, factory):
        system = fifo_system(sliding_window_protocol(4)).started(
            PermissiveChannelState(delivery=random_lossy_fifo(seed, 0.35)),
            PermissiveChannelState(delivery=random_lossy_fifo(seed + 31, 0.35)),
        )
        messages = factory.fresh_many(10)
        fragment = deliver_all(system, messages)
        stats = delivery_stats(fragment)
        assert stats.delivered == 10 and stats.duplicates == 0

    @given(st.integers(1, 6), st.integers(0, 4))
    @settings(max_examples=12, deadline=None)
    def test_window_modulus_combinations(self, window, extra_modulus):
        protocol = sliding_window_protocol(
            window, window + 1 + extra_modulus
        )
        system = fifo_system(protocol)
        factory = MessageFactory()
        messages = factory.fresh_many(5)
        fragment = deliver_all(system, messages)
        delivered = [
            a.payload for a in fragment.actions if a.name == "receive_msg"
        ]
        assert delivered == list(messages)

"""Tests for the alternating-bit protocol."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.alphabets import Message, MessageFactory, Packet
from repro.channels import PermissiveChannelState, random_lossy_fifo
from repro.datalink import dl_module
from repro.protocols.alternating_bit import (
    AbpReceiver,
    AbpTransmitter,
    alternating_bit_protocol,
)
from repro.sim import delivery_stats, fifo_system

from ..conftest import deliver_all

M1, M2 = Message(1), Message(2)


class TestTransmitterLogic:
    def setup_method(self):
        self.logic = AbpTransmitter()
        self.core = self.logic.on_wake(self.logic.initial_core())

    def test_initial_state(self):
        fresh = self.logic.initial_core()
        assert fresh.bit == 0 and fresh.queue == () and not fresh.awake

    def test_queueing(self):
        core = self.logic.on_send_msg(self.core, M1)
        core = self.logic.on_send_msg(core, M2)
        assert core.queue == (M1, M2)

    def test_sends_head_with_current_bit(self):
        core = self.logic.on_send_msg(self.core, M1)
        (packet,) = list(self.logic.enabled_sends(core))
        assert packet == Packet(("DATA", 0), (M1,))

    def test_no_send_while_asleep(self):
        core = self.logic.on_send_msg(self.logic.initial_core(), M1)
        assert list(self.logic.enabled_sends(core)) == []

    def test_matching_ack_advances(self):
        core = self.logic.on_send_msg(self.core, M1)
        core = self.logic.on_packet(core, Packet(("ACK", 0)))
        assert core.queue == () and core.bit == 1

    def test_stale_ack_ignored(self):
        core = self.logic.on_send_msg(self.core, M1)
        core = self.logic.on_packet(core, Packet(("ACK", 1)))
        assert core.queue == (M1,) and core.bit == 0

    def test_ack_with_empty_queue_ignored(self):
        core = self.logic.on_packet(self.core, Packet(("ACK", 0)))
        assert core.bit == 0

    def test_retransmission_allowed(self):
        core = self.logic.on_send_msg(self.core, M1)
        (packet,) = list(self.logic.enabled_sends(core))
        after = self.logic.after_send(core, packet)
        assert list(self.logic.enabled_sends(after)) == [packet]


class TestReceiverLogic:
    def setup_method(self):
        self.logic = AbpReceiver()
        self.core = self.logic.on_wake(self.logic.initial_core())

    def test_expected_bit_accepted(self):
        core = self.logic.on_packet(
            self.core, Packet(("DATA", 0), (M1,))
        )
        assert core.inbox == (M1,)
        assert core.expected == 1
        assert core.pending_acks == (0,)

    def test_duplicate_bit_reacked_not_redelivered(self):
        core = self.logic.on_packet(
            self.core, Packet(("DATA", 0), (M1,))
        )
        core = self.logic.on_packet(core, Packet(("DATA", 0), (M1,)))
        assert core.inbox == (M1,)  # no duplicate
        assert core.pending_acks == (0, 0)  # but re-acknowledged

    def test_delivery_pops_inbox(self):
        core = self.logic.on_packet(
            self.core, Packet(("DATA", 0), (M1,))
        )
        assert list(self.logic.enabled_deliveries(core)) == [M1]
        core = self.logic.after_delivery(core, M1)
        assert list(self.logic.enabled_deliveries(core)) == []

    def test_acks_drain_in_order(self):
        core = self.logic.on_packet(
            self.core, Packet(("DATA", 0), (M1,))
        )
        core = self.logic.on_packet(core, Packet(("DATA", 1), (M2,)))
        (ack,) = list(self.logic.enabled_sends(core))
        assert ack == Packet(("ACK", 0))
        core = self.logic.after_send(core, ack)
        (ack2,) = list(self.logic.enabled_sends(core))
        assert ack2 == Packet(("ACK", 1))


class TestEndToEnd:
    def test_in_order_delivery(self, factory):
        system = fifo_system(alternating_bit_protocol())
        messages = factory.fresh_many(5)
        fragment = deliver_all(system, messages)
        stats = delivery_stats(fragment)
        assert stats.delivered == 5 and stats.duplicates == 0
        behavior = system.behavior(fragment)
        assert dl_module("t", "r").contains(behavior)

    @pytest.mark.parametrize("loss", [0.2, 0.5])
    @pytest.mark.parametrize("seed", range(3))
    def test_delivery_under_loss(self, factory, loss, seed):
        system = fifo_system(alternating_bit_protocol()).started(
            PermissiveChannelState(delivery=random_lossy_fifo(seed, loss)),
            PermissiveChannelState(delivery=random_lossy_fifo(seed + 50, loss)),
        )
        messages = factory.fresh_many(6)
        fragment = deliver_all(system, messages)
        stats = delivery_stats(fragment)
        assert stats.delivered == 6 and stats.duplicates == 0

    def test_metadata(self):
        protocol = alternating_bit_protocol()
        assert protocol.has_bounded_headers()
        assert not protocol.crash_resilient

    @given(st.integers(1, 12))
    @settings(max_examples=10, deadline=None)
    def test_any_message_count_delivered_in_order(self, count):
        system = fifo_system(alternating_bit_protocol())
        factory = MessageFactory()
        messages = factory.fresh_many(count)
        fragment = deliver_all(system, messages)
        delivered = [
            a.payload
            for a in fragment.actions
            if a.name == "receive_msg"
        ]
        assert delivered == list(messages)

"""Tests for the selective-repeat sliding-window protocol."""

from __future__ import annotations

import pytest

from repro.alphabets import Message, Packet
from repro.analysis import verify_delivery_order
from repro.channels import PermissiveChannelState, random_lossy_fifo
from repro.datalink import (
    check_crashing,
    check_message_independence,
    dl_module,
)
from repro.impossibility import (
    refute_bounded_headers,
    refute_crash_tolerance,
)
from repro.protocols.selective_repeat import (
    SrReceiver,
    SrTransmitter,
    selective_repeat_protocol,
)
from repro.sim import delivery_stats, fifo_system

from ..conftest import deliver_all

M = [Message(i) for i in range(10)]


class TestTransmitterLogic:
    def setup_method(self):
        self.logic = SrTransmitter(window=2, modulus=4)
        self.core = self.logic.on_wake(self.logic.initial_core())

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            SrTransmitter(window=0)
        with pytest.raises(ValueError):
            SrTransmitter(window=3, modulus=5)  # needs >= 2w

    def test_window_fills_from_pending(self):
        core = self.core
        for m in M[:3]:
            core = self.logic.on_send_msg(core, m)
        assert [m for m, _ in core.window] == M[:2]
        assert core.pending == (M[2],)

    def test_selective_ack_marks_slot(self):
        core = self.core
        for m in M[:2]:
            core = self.logic.on_send_msg(core, m)
        # Ack the SECOND slot only: window cannot slide yet.
        core = self.logic.on_packet(core, Packet(("ACK", 1)))
        assert core.window == ((M[0], False), (M[1], True))
        assert core.base_seq == 0
        # Only the unacked slot is retransmitted.
        sends = list(self.logic.enabled_sends(core))
        assert [p.header for p in sends] == [("DATA", 0)]

    def test_window_slides_over_acked_prefix(self):
        core = self.core
        for m in M[:3]:
            core = self.logic.on_send_msg(core, m)
        core = self.logic.on_packet(core, Packet(("ACK", 1)))
        core = self.logic.on_packet(core, Packet(("ACK", 0)))
        # Both acked: slide by two, promote M[2].
        assert core.base_seq == 2
        assert [m for m, _ in core.window] == [M[2]]

    def test_stale_ack_ignored(self):
        core = self.logic.on_send_msg(self.core, M[0])
        core = self.logic.on_packet(core, Packet(("ACK", 3)))
        assert core.window == ((M[0], False),)


class TestReceiverLogic:
    def setup_method(self):
        self.logic = SrReceiver(window=2, modulus=4)
        self.core = self.logic.on_wake(self.logic.initial_core())

    def test_out_of_order_buffered_then_drained(self):
        core = self.logic.on_packet(self.core, Packet(("DATA", 1), (M[1],)))
        assert core.inbox == ()  # buffered, not deliverable yet
        assert dict(core.buffer) == {1: M[1]}
        core = self.logic.on_packet(core, Packet(("DATA", 0), (M[0],)))
        assert core.inbox == (M[0], M[1])  # gap filled: both drain
        assert core.buffer == ()
        assert core.expected == 2

    def test_outside_window_not_buffered(self):
        core = self.logic.on_packet(self.core, Packet(("DATA", 2), (M[2],)))
        assert core.buffer == ()
        assert core.pending_acks == (2,)  # still acknowledged

    def test_duplicate_buffered_packet_ignored(self):
        core = self.logic.on_packet(self.core, Packet(("DATA", 1), (M[1],)))
        core = self.logic.on_packet(core, Packet(("DATA", 1), (M[1],)))
        assert dict(core.buffer) == {1: M[1]}


class TestEndToEnd:
    @pytest.mark.parametrize("window", [1, 2, 4])
    def test_in_order_delivery(self, window, factory):
        system = fifo_system(selective_repeat_protocol(window))
        messages = factory.fresh_many(8)
        fragment = deliver_all(system, messages)
        delivered = [
            a.payload for a in fragment.actions if a.name == "receive_msg"
        ]
        assert delivered == list(messages)
        assert dl_module("t", "r").contains(system.behavior(fragment))

    @pytest.mark.parametrize("seed", range(4))
    def test_delivery_under_loss(self, seed, factory):
        system = fifo_system(selective_repeat_protocol(3)).started(
            PermissiveChannelState(delivery=random_lossy_fifo(seed, 0.35)),
            PermissiveChannelState(delivery=random_lossy_fifo(seed + 41, 0.35)),
        )
        messages = factory.fresh_many(9)
        fragment = deliver_all(system, messages)
        stats = delivery_stats(fragment)
        assert stats.delivered == 9 and stats.duplicates == 0


class TestTheoremVictim:
    def test_hypotheses(self):
        protocol = selective_repeat_protocol(2)
        assert check_message_independence(protocol).independent
        assert check_crashing(protocol).crashing
        assert protocol.has_bounded_headers()

    def test_crash_engine_defeats_it(self):
        assert refute_crash_tolerance(
            selective_repeat_protocol(2)
        ).validate()

    def test_header_engine_defeats_it(self):
        assert refute_bounded_headers(
            selective_repeat_protocol(2)
        ).validate()

    def test_exhaustively_verified_over_fifo(self):
        result = verify_delivery_order(
            selective_repeat_protocol(2), messages=2, capacity=2
        )
        assert result.ok and result.exhaustive

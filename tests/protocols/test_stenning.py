"""Tests for Stenning's protocol and its modulo weakening."""

from __future__ import annotations

import pytest

from repro.alphabets import Message, Packet
from repro.channels import PermissiveChannelState, random_reordering
from repro.datalink import dl_module, wdl_module
from repro.protocols.stenning import (
    StenningReceiver,
    StenningTransmitter,
    modulo_stenning_protocol,
    stenning_protocol,
)
from repro.sim import delivery_stats, fifo_system, permissive_system

from ..conftest import deliver_all

M = [Message(i) for i in range(8)]


class TestTransmitterLogic:
    def setup_method(self):
        self.logic = StenningTransmitter()
        self.core = self.logic.on_wake(self.logic.initial_core())

    def test_sequence_numbers_grow(self):
        core = self.core
        for m in M[:3]:
            core = self.logic.on_send_msg(core, m)
        for expected_seq in range(3):
            (packet,) = list(self.logic.enabled_sends(core))
            assert packet.header == ("DATA", expected_seq)
            core = self.logic.on_packet(
                core, Packet(("ACK", expected_seq))
            )
        assert core.seq == 3 and core.pending == ()

    def test_stale_ack_ignored(self):
        core = self.logic.on_send_msg(self.core, M[0])
        core = self.logic.on_packet(core, Packet(("ACK", 7)))
        assert core.seq == 0 and core.pending == (M[0],)

    def test_unbounded_header_space(self):
        assert self.logic.header_space() is None

    def test_modulo_header_space(self):
        assert len(StenningTransmitter(4).header_space()) == 4

    def test_modulo_wraps(self):
        logic = StenningTransmitter(2)
        core = logic.on_wake(logic.initial_core())
        for m in M[:3]:
            core = logic.on_send_msg(core, m)
        core = logic.on_packet(core, Packet(("ACK", 0)))
        core = logic.on_packet(core, Packet(("ACK", 1)))
        (packet,) = list(logic.enabled_sends(core))
        assert packet.header == ("DATA", 0)  # 2 mod 2


class TestReceiverLogic:
    def setup_method(self):
        self.logic = StenningReceiver()
        self.core = self.logic.on_wake(self.logic.initial_core())

    def test_expected_sequence_accepted(self):
        core = self.logic.on_packet(self.core, Packet(("DATA", 0), (M[0],)))
        assert core.inbox == (M[0],) and core.expected == 1

    def test_old_sequence_reacked_not_delivered(self):
        core = self.logic.on_packet(self.core, Packet(("DATA", 0), (M[0],)))
        core = self.logic.on_packet(core, Packet(("DATA", 0), (M[0],)))
        assert core.inbox == (M[0],)
        assert core.pending_acks == (0, 0)

    def test_future_sequence_not_delivered(self):
        core = self.logic.on_packet(self.core, Packet(("DATA", 5), (M[5],)))
        assert core.inbox == ()


class TestEndToEnd:
    def test_in_order_delivery_over_fifo(self, factory):
        system = fifo_system(stenning_protocol())
        messages = factory.fresh_many(6)
        fragment = deliver_all(system, messages)
        assert dl_module("t", "r").contains(system.behavior(fragment))

    @pytest.mark.parametrize("seed", range(5))
    def test_weakly_correct_over_reordering(self, seed, factory):
        """The positive counterpart of Theorem 8.5: unbounded headers
        tolerate arbitrary reordering."""
        system = permissive_system(stenning_protocol()).started(
            PermissiveChannelState(delivery=random_reordering(seed, 0.25, 6)),
            PermissiveChannelState(delivery=random_reordering(seed + 17, 0.25, 6)),
        )
        messages = factory.fresh_many(8)
        fragment = deliver_all(system, messages)
        stats = delivery_stats(fragment)
        assert stats.delivered == 8 and stats.duplicates == 0
        assert wdl_module("t", "r").contains(system.behavior(fragment))

    def test_modulo_variant_validates(self):
        with pytest.raises(ValueError):
            modulo_stenning_protocol(1)

    def test_modulo_variant_correct_over_fifo(self, factory):
        system = fifo_system(modulo_stenning_protocol(4))
        messages = factory.fresh_many(9)
        fragment = deliver_all(system, messages)
        assert dl_module("t", "r").contains(system.behavior(fragment))

    def test_metadata(self):
        assert stenning_protocol().header_space() is None
        assert modulo_stenning_protocol(8).has_bounded_headers()

"""Tests for the fragmenting protocol (Section 9 length-classes)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.alphabets import Message, MessageFactory, Packet
from repro.channels import PermissiveChannelState, random_lossy_fifo
from repro.datalink import dl_module
from repro.impossibility import (
    refute_bounded_headers,
    refute_crash_tolerance,
)
from repro.protocols.fragmentation import (
    FragReceiver,
    FragTransmitter,
    fragmenting_protocol,
    fragments_needed,
)
from repro.sim import channel_stats, delivery_stats, fifo_system


class TestFragmentCount:
    def test_zero_size_single_fragment(self):
        assert fragments_needed(Message(1, size=0), chunk=2) == 1

    def test_exact_multiple(self):
        assert fragments_needed(Message(1, size=4), chunk=2) == 2

    def test_rounding_up(self):
        assert fragments_needed(Message(1, size=5), chunk=2) == 3


class TestTransmitterLogic:
    def setup_method(self):
        self.logic = FragTransmitter(chunk=1, modulus=2, max_fragments=4)
        self.core = self.logic.on_wake(self.logic.initial_core())

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            FragTransmitter(chunk=0)
        with pytest.raises(ValueError):
            FragTransmitter(modulus=1)

    def test_small_message_is_final_only(self):
        core = self.logic.on_send_msg(self.core, Message(1, size=1))
        (packet,) = list(self.logic.enabled_sends(core))
        assert packet.header == ("FINAL", 0, 0)
        assert len(packet.body) == 1

    def test_large_message_starts_with_carriers(self):
        message = Message(1, size=3)
        core = self.logic.on_send_msg(self.core, message)
        (packet,) = list(self.logic.enabled_sends(core))
        assert packet.header == ("CARRIER", 0, 0)
        assert packet.body == ()
        # Ack the carriers one by one.
        core = self.logic.on_packet(core, Packet(("FACK", 0, 0)))
        (packet,) = list(self.logic.enabled_sends(core))
        assert packet.header == ("CARRIER", 0, 1)
        core = self.logic.on_packet(core, Packet(("FACK", 0, 1)))
        (packet,) = list(self.logic.enabled_sends(core))
        assert packet.header == ("FINAL", 0, 2)
        assert packet.body == (message,)

    def test_final_ack_advances_sequence(self):
        core = self.logic.on_send_msg(self.core, Message(1, size=1))
        core = self.logic.on_packet(core, Packet(("FACK", 0, 0)))
        assert core.seq == 1 and core.pending == ()

    def test_stale_ack_ignored(self):
        core = self.logic.on_send_msg(self.core, Message(1, size=1))
        core = self.logic.on_packet(core, Packet(("FACK", 1, 0)))
        assert core.pending  # unmoved

    def test_fragment_cap(self):
        logic = FragTransmitter(chunk=1, modulus=2, max_fragments=2)
        core = logic.on_wake(logic.initial_core())
        core = logic.on_send_msg(core, Message(1, size=99))
        core = logic.on_packet(core, Packet(("FACK", 0, 0)))
        (packet,) = list(logic.enabled_sends(core))
        assert packet.header[0] == "FINAL"  # capped at 2 fragments

    def test_header_space_is_finite(self):
        space = self.logic.header_space()
        assert len(space) == 2 * 2 * 4  # kinds x modulus x max_fragments


class TestReceiverLogic:
    def setup_method(self):
        self.logic = FragReceiver(chunk=1, modulus=2, max_fragments=4)
        self.core = self.logic.on_wake(self.logic.initial_core())

    def test_reassembly(self):
        message = Message(1, size=2)
        core = self.logic.on_packet(self.core, Packet(("CARRIER", 0, 0)))
        assert core.inbox == ()
        assert core.expected_index == 1
        core = self.logic.on_packet(
            core, Packet(("FINAL", 0, 1), (message,))
        )
        assert core.inbox == (message,)
        assert core.expected_seq == 1 and core.expected_index == 0

    def test_out_of_order_fragment_ignored_but_acked(self):
        core = self.logic.on_packet(self.core, Packet(("CARRIER", 0, 1)))
        assert core.expected_index == 0
        assert core.pending_acks == ((0, 1),)

    def test_wrong_sequence_ignored(self):
        message = Message(1, size=1)
        core = self.logic.on_packet(
            self.core, Packet(("FINAL", 1, 0), (message,))
        )
        assert core.inbox == ()


class TestEndToEnd:
    def test_mixed_sizes_in_order(self):
        system = fifo_system(fragmenting_protocol(chunk=1, max_fragments=3))
        factory = MessageFactory()
        messages = [factory.fresh(size=s) for s in (0, 3, 1, 2, 5)]
        fragment = system.run_fair(
            system.initial_state(),
            inputs=[system.wake_t(), system.wake_r()]
            + [system.send(m) for m in messages],
        )
        delivered = [
            a.payload for a in fragment.actions if a.name == "receive_msg"
        ]
        assert delivered == messages
        assert dl_module("t", "r").contains(system.behavior(fragment))

    def test_packet_count_scales_with_size(self):
        def packets_for(size):
            system = fifo_system(
                fragmenting_protocol(chunk=1, max_fragments=4)
            )
            message = MessageFactory().fresh(size=size)
            fragment = system.run_fair(
                system.initial_state(),
                inputs=[
                    system.wake_t(),
                    system.wake_r(),
                    system.send(message),
                ],
            )
            return channel_stats(fragment, "t", "r").packets_sent

        assert packets_for(1) < packets_for(3) < packets_for(4)

    @pytest.mark.parametrize("seed", range(3))
    def test_delivery_under_loss(self, seed):
        system = fifo_system(fragmenting_protocol(chunk=1, max_fragments=3)).started(
            PermissiveChannelState(delivery=random_lossy_fifo(seed, 0.3)),
            PermissiveChannelState(delivery=random_lossy_fifo(seed + 5, 0.3)),
        )
        factory = MessageFactory()
        messages = [factory.fresh(size=s) for s in (2, 0, 3)]
        fragment = system.run_fair(
            system.initial_state(),
            inputs=[system.wake_t(), system.wake_r()]
            + [system.send(m) for m in messages],
        )
        stats = delivery_stats(fragment)
        assert stats.delivered == 3 and stats.duplicates == 0


class TestEngineVictim:
    """Section 9: the proofs extend to length-dependent classes."""

    def test_crash_engine_defeats_it_at_size_zero(self):
        certificate = refute_crash_tolerance(fragmenting_protocol())
        assert certificate.validate()

    def test_crash_engine_defeats_it_in_a_large_size_class(self):
        certificate = refute_crash_tolerance(
            fragmenting_protocol(chunk=1, max_fragments=3),
            message_size=3,
        )
        assert certificate.validate()
        # The multi-fragment reference execution deepens the chain.
        assert certificate.stats["pump_levels"] >= 5

    def test_header_engine_defeats_it_with_multi_packet_deliveries(self):
        certificate = refute_bounded_headers(
            fragmenting_protocol(chunk=1, max_fragments=3),
            message_size=3,
        )
        assert certificate.validate()
        assert certificate.stats["k"] >= 3  # at least one pkt per fragment

    @given(st.integers(0, 4))
    @settings(max_examples=5, deadline=None)
    def test_header_engine_defeats_every_size_class(self, size):
        certificate = refute_bounded_headers(
            fragmenting_protocol(chunk=2, max_fragments=2),
            message_size=size,
        )
        assert certificate.validate()

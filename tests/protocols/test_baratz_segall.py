"""Tests for the Baratz-Segall-style protocol with non-volatile memory."""

from __future__ import annotations

import pytest

from repro.alphabets import Message, Packet
from repro.datalink import dl4, dl5, dl_module
from repro.protocols.baratz_segall import (
    BsReceiver,
    BsTransmitter,
    baratz_segall_protocol,
)
from repro.sim import Session, crash_storm, fifo_system

from ..conftest import deliver_all

M = [Message(i) for i in range(8)]


class TestTransmitterLogic:
    def setup_method(self):
        self.logic = BsTransmitter(nonvolatile=True)
        self.core = self.logic.on_wake(self.logic.initial_core())

    def test_syn_before_session(self):
        core = self.logic.on_send_msg(self.core, M[0])
        (packet,) = list(self.logic.enabled_sends(core))
        assert packet.header == ("SYN", 0)

    def test_no_syn_without_traffic(self):
        assert list(self.logic.enabled_sends(self.core)) == []

    def test_handshake_opens_session(self):
        core = self.logic.on_send_msg(self.core, M[0])
        core = self.logic.on_packet(core, Packet(("SYNACK", 0, 5)))
        assert core.peer == 5
        (packet,) = list(self.logic.enabled_sends(core))
        assert packet.header == ("DATA", (0, 5), 0)
        assert packet.body == (M[0],)

    def test_stale_synack_ignored(self):
        core = self.logic.on_send_msg(self.core, M[0])
        core = self.logic.on_packet(core, Packet(("SYNACK", 9, 5)))
        assert core.peer is None

    def test_ack_advances_sequence(self):
        core = self.logic.on_send_msg(self.core, M[0])
        core = self.logic.on_send_msg(core, M[1])
        core = self.logic.on_packet(core, Packet(("SYNACK", 0, 5)))
        core = self.logic.on_packet(core, Packet(("ACK", (0, 5), 0)))
        assert core.seq == 1 and core.current == M[1]

    def test_reset_drops_in_doubt_message(self):
        core = self.logic.on_send_msg(self.core, M[0])
        core = self.logic.on_send_msg(core, M[1])
        core = self.logic.on_packet(core, Packet(("SYNACK", 0, 5)))
        core = self.logic.on_packet(core, Packet(("RESET", 6)))
        # Session dead: M[0] (in doubt) discarded; M[1] stays queued
        # until the next handshake completes; the station re-SYNs.
        assert core.peer is None
        assert core.current is None
        assert core.queue == (M[1],)
        (packet,) = list(self.logic.enabled_sends(core))
        assert packet.header == ("SYN", 0)
        # After the new handshake M[1] is promoted.
        reopened = self.logic.on_packet(core, Packet(("SYNACK", 0, 6)))
        assert reopened.current == M[1]

    def test_reset_with_current_peer_epoch_ignored(self):
        core = self.logic.on_send_msg(self.core, M[0])
        core = self.logic.on_packet(core, Packet(("SYNACK", 0, 5)))
        core = self.logic.on_packet(core, Packet(("RESET", 5)))
        assert core.peer == 5

    def test_crash_bumps_nonvolatile_incarnation(self):
        crashed = self.logic.on_crash(self.core)
        assert crashed.nv == 1
        assert crashed.peer is None and crashed.queue == ()

    def test_volatile_crash_resets_everything(self):
        logic = BsTransmitter(nonvolatile=False)
        crashed = logic.on_crash(
            logic.on_crash(logic.initial_core())
        )
        assert crashed == logic.initial_core()


class TestReceiverLogic:
    def setup_method(self):
        self.logic = BsReceiver(nonvolatile=True)
        self.core = self.logic.on_wake(self.logic.initial_core())

    def test_syn_establishes_and_synacks(self):
        core = self.logic.on_packet(self.core, Packet(("SYN", 3)))
        assert core.tx_epoch == 3 and core.expected == 0
        (response,) = list(self.logic.enabled_sends(core))
        assert response.header == ("SYNACK", 3, 0)

    def test_data_in_session_delivered_and_acked(self):
        core = self.logic.on_packet(self.core, Packet(("SYN", 3)))
        core = self.logic.on_packet(
            core, Packet(("DATA", (3, 0), 0), (M[0],))
        )
        assert core.inbox == (M[0],)
        assert core.responses[-1].header == ("ACK", (3, 0), 0)

    def test_stale_session_data_resets(self):
        core = self.logic.on_packet(self.core, Packet(("SYN", 3)))
        core = self.logic.on_packet(
            core, Packet(("DATA", (3, 9), 0), (M[0],))
        )
        assert core.inbox == ()
        assert core.responses[-1].header == ("RESET", 0)

    def test_unknown_transmitter_resets(self):
        core = self.logic.on_packet(
            self.core, Packet(("DATA", (4, 0), 0), (M[0],))
        )
        assert core.responses[-1].header == ("RESET", 0)

    def test_duplicate_data_reacked_not_redelivered(self):
        core = self.logic.on_packet(self.core, Packet(("SYN", 3)))
        data = Packet(("DATA", (3, 0), 0), (M[0],))
        core = self.logic.on_packet(core, data)
        core = self.logic.on_packet(core, data)
        assert core.inbox == (M[0],)

    def test_crash_bumps_incarnation(self):
        crashed = self.logic.on_crash(self.core)
        assert crashed.nv == 1 and crashed.tx_epoch is None


class TestEndToEnd:
    def test_plain_delivery(self, factory):
        system = fifo_system(baratz_segall_protocol())
        messages = factory.fresh_many(5)
        fragment = deliver_all(system, messages)
        assert dl_module("t", "r").contains(system.behavior(fragment))

    @pytest.mark.parametrize("crashes", [1, 3, 6])
    @pytest.mark.parametrize("seed", range(3))
    def test_safety_under_crash_storms(self, crashes, seed):
        """(DL4)/(DL5) hold under arbitrary crash schedules -- the
        property the non-volatile incarnation buys."""
        system = fifo_system(baratz_segall_protocol(nonvolatile=True))
        script = crash_storm(system, crashes=crashes, seed=seed)
        result = Session(system, tuple(script.actions), seed=seed).run()
        assert result.quiescent
        assert dl4(result.behavior, "t", "r").holds
        assert dl5(result.behavior, "t", "r").holds

    @pytest.mark.parametrize("seed", range(3))
    def test_post_crash_messages_delivered(self, seed, factory):
        """Messages submitted after the last crash settle are delivered."""
        system = fifo_system(baratz_segall_protocol(nonvolatile=True))
        # Crash both hosts, let things settle, then send.
        warmup = [
            system.wake_t(),
            system.wake_r(),
            system.send(factory.fresh()),
            system.crash_t(),
            system.wake_t(),
            system.crash_r(),
            system.wake_r(),
        ]
        state = system.run_fair(system.initial_state(), inputs=warmup)
        messages = factory.fresh_many(4)
        fragment = system.run_fair(
            state.final_state, inputs=[system.send(m) for m in messages]
        )
        delivered = {
            a.payload for a in fragment.actions if a.name == "receive_msg"
        }
        assert set(messages) <= delivered

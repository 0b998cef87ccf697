"""Tests for the composed data-link systems (D-hat', D-bar')."""

from __future__ import annotations

import pytest

from repro.alphabets import MessageFactory
from repro.channels import (
    DeliverySet,
    PermissiveChannel,
    PermissiveChannelState,
    PermissiveFifoChannel,
    random_lossy_fifo,
    receive_pkt,
    send_pkt,
)
from repro.protocols import alternating_bit_protocol
from repro.sim import custom_system, fifo_system, permissive_system


@pytest.fixture
def system():
    return fifo_system(alternating_bit_protocol())


class TestConstruction:
    def test_fifo_system_uses_fifo_channels(self, system):
        assert isinstance(system.channel_tr, PermissiveFifoChannel)
        assert isinstance(system.channel_rt, PermissiveFifoChannel)

    def test_permissive_system_uses_cbar(self):
        system = permissive_system(alternating_bit_protocol())
        assert type(system.channel_tr) is PermissiveChannel

    def test_custom_system(self):
        system = custom_system(
            alternating_bit_protocol(),
            PermissiveChannel("t", "r"),
            PermissiveChannel("r", "t"),
        )
        assert system.t == "t" and system.r == "r"

    def test_packet_actions_hidden(self, system):
        from repro.alphabets import Packet

        sig = system.automaton.signature
        assert sig.is_internal(send_pkt("t", "r", Packet("x")))
        assert sig.is_internal(receive_pkt("t", "r", Packet("x")))
        assert sig.is_input(system.send(MessageFactory().fresh()))
        assert sig.is_output(system.receive(MessageFactory().fresh()))

    def test_external_signature_is_dl_signature(self, system):
        from repro.datalink import data_link_signature

        expected = data_link_signature("t", "r")
        actual = system.automaton.signature
        assert actual.inputs == expected.inputs
        assert actual.outputs == expected.outputs


class TestStarted:
    """``started`` is the one place a channel adversary enters a system."""

    def test_shares_automata_and_starts_only_the_channels(self, system):
        tr = PermissiveChannelState(delivery=DeliverySet((2,), 1))
        rt = PermissiveChannelState(delivery=random_lossy_fifo(3, 0.5))
        started = system.started(tr, rt)
        assert started.automaton is system.automaton
        assert system.start is None
        state = started.initial_state()
        assert state[:2] == system.initial_state()[:2]
        assert state[2] is tr and state[3] is rt

    def test_restarting_replaces_the_start(self, system):
        lossy = PermissiveChannelState(delivery=DeliverySet((2,), 1))
        fifo = PermissiveChannelState()
        twice = system.started(lossy, lossy).started(fifo, fifo)
        assert twice.initial_state() == system.initial_state()

    def test_non_fifo_channels_take_any_set(self):
        system = permissive_system(alternating_bit_protocol())
        reordered = PermissiveChannelState(delivery=DeliverySet((2, 1), 2))
        assert system.started(reordered, reordered).initial_state()[2] is reordered


class TestStateAccess:
    def test_host_and_channel_views(self, system):
        state = system.initial_state()
        assert system.host_state(state, "t").core.queue == ()
        assert system.channel_state(state, "t").counter1 == 0
        assert system.channel_state(state, "r").counter1 == 0

    def test_with_channel_state(self, system):
        state = system.initial_state()
        channel_state = system.channel_state(state, "t")
        patched = system.with_channel_state(state, "t", channel_state)
        assert patched == state

    def test_clean_channels(self, system, factory):
        fragment = system.run_fair(
            system.initial_state(),
            inputs=[
                system.wake_t(),
                system.wake_r(),
                system.send(factory.fresh()),
            ],
        )
        cleaned = system.clean_channels(fragment.final_state)
        assert system.channels_clean(cleaned)


class TestDriving:
    def test_run_fair_delivers(self, system, factory):
        message = factory.fresh()
        fragment = system.run_fair(
            system.initial_state(),
            inputs=[
                system.wake_t(),
                system.wake_r(),
                system.send(message),
            ],
        )
        behavior = system.behavior(fragment)
        assert behavior[-1] == system.receive(message)

    def test_stop_when(self, system, factory):
        message = factory.fresh()
        fragment = system.run_fair(
            system.initial_state(),
            inputs=[
                system.wake_t(),
                system.wake_r(),
                system.send(message),
            ],
            stop_when=lambda a: a.name == "receive_msg",
        )
        assert fragment.actions[-1].name == "receive_msg"

    def test_set_waiting_then_deliver(self, system, factory):
        # Send a message, then use surgery to keep only the data packet.
        message = factory.fresh()
        fragment = system.run_fair(
            system.initial_state(),
            inputs=[
                system.wake_t(),
                system.wake_r(),
                system.send(message),
            ],
            stop_when=lambda a: a.name == "send_pkt",
        )
        state = system.set_waiting(fragment.final_state, "t", [1])
        waiting = system.channel_state(state, "t").waiting_sequence()
        assert len(waiting) == 1
        assert waiting[0].body == (message,)

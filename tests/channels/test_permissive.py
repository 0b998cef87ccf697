"""Tests for the permissive channels C-bar / C-hat (paper 6.1-6.2)."""

from __future__ import annotations

import pickle
import random

import pytest

from repro.alphabets import Message, Packet, rename_messages, strip_uids
from repro.channels import (
    DeliverySet,
    DeliverySetError,
    PermissiveChannel,
    PermissiveChannelState,
    PermissiveFifoChannel,
    random_lossy_fifo,
    random_reordering,
    receive_pkt,
    send_pkt,
    wake,
    fail,
    crash,
)
from repro.protocols import alternating_bit_protocol
from repro.sim import fifo_system


def packets(n):
    return [Packet(f"h{i}", (), uid=i) for i in range(1, n + 1)]


def send_all(channel, state, pkts):
    for packet in pkts:
        state = channel.step(state, send_pkt("t", "r", packet))
    return state


@pytest.fixture
def channel():
    return PermissiveChannel("t", "r")


@pytest.fixture
def fifo():
    return PermissiveFifoChannel("t", "r")


class TestBasics:
    def test_signature(self, channel):
        assert channel.signature.is_input(send_pkt("t", "r", Packet("h")))
        assert channel.signature.is_input(wake("t", "r"))
        assert channel.signature.is_input(fail("t", "r"))
        assert channel.signature.is_input(crash("t", "r"))
        assert channel.signature.is_output(
            receive_pkt("t", "r", Packet("h"))
        )

    def test_initial_state(self, channel):
        state = channel.initial_state()
        assert state.counter1 == state.counter2 == 0
        assert state.sent == ()

    def test_send_records_packet(self, channel):
        p = Packet("h", (), uid=1)
        state = channel.step(channel.initial_state(), send_pkt("t", "r", p))
        assert state.counter1 == 1
        assert state.packet_at(1) == p
        assert state.packet_at(2) is None

    def test_wake_fail_crash_are_noops(self, channel):
        state = channel.initial_state()
        for action in (wake("t", "r"), fail("t", "r"), crash("t", "r")):
            assert channel.step(state, action) == state

    def test_fifo_delivery_order(self, channel):
        pkts = packets(3)
        state = send_all(channel, channel.initial_state(), pkts)
        for expected in pkts:
            (action,) = list(channel.enabled_local_actions(state))
            assert action.payload == expected
            state = channel.step(state, action)
        assert list(channel.enabled_local_actions(state)) == []

    def test_receive_precondition_checks_payload(self, channel):
        pkts = packets(2)
        state = send_all(channel, channel.initial_state(), pkts)
        wrong = receive_pkt("t", "r", pkts[1])  # out of order
        assert channel.transitions(state, wrong) == ()

    def test_no_delivery_before_send(self, channel):
        assert list(
            channel.enabled_local_actions(channel.initial_state())
        ) == []

    def test_lossy_delivery_set(self):
        # Delivery set skipping send 1: first delivery is packet 2.
        channel = PermissiveChannel("t", "r")
        start = PermissiveChannelState(delivery=DeliverySet((2,), 1))
        pkts = packets(2)
        state = send_all(channel, start, pkts)
        (action,) = list(channel.enabled_local_actions(state))
        assert action.payload == pkts[1]

    def test_reordering_delivery_set(self):
        channel = PermissiveChannel("t", "r")
        start = PermissiveChannelState(delivery=DeliverySet((2, 1), 2))
        pkts = packets(2)
        state = send_all(channel, start, pkts)
        (first,) = list(channel.enabled_local_actions(state))
        assert first.payload == pkts[1]
        state = channel.step(state, first)
        (second,) = list(channel.enabled_local_actions(state))
        assert second.payload == pkts[0]

    def test_stalled_delivery_waits_for_future_send(self):
        # Slot 1 wants send 3: nothing deliverable until 3 sends happen.
        channel = PermissiveChannel("t", "r")
        start = PermissiveChannelState(delivery=DeliverySet((3, 1, 2), 0))
        state = send_all(channel, start, packets(2))
        assert state.deliverable() is None

    def test_single_task(self, channel):
        p = Packet("h")
        assert channel.task_of(receive_pkt("t", "r", p)) == (
            channel.name,
            "deliver",
        )


class TestStateViews:
    def test_delivered_and_in_transit(self, channel):
        pkts = packets(3)
        state = send_all(channel, channel.initial_state(), pkts)
        (action,) = list(channel.enabled_local_actions(state))
        state = channel.step(state, action)
        assert state.delivered_indices() == (1,)
        assert state.in_transit_indices() == (2, 3)

    def test_waiting_sequence(self, channel):
        pkts = packets(3)
        state = send_all(channel, channel.initial_state(), pkts)
        assert state.waiting_sequence() == tuple(pkts)

    def test_waiting_sequence_stops_at_unsent(self):
        channel = PermissiveChannel("t", "r")
        start = PermissiveChannelState(delivery=DeliverySet((1, 3, 2), 0))
        pkts = packets(2)
        state = send_all(channel, start, pkts)
        # Slot 2 wants send 3 (unsent): waiting stops after packet 1.
        assert state.waiting_sequence() == (pkts[0],)

    def test_fresh_state_is_clean(self, channel):
        assert channel.initial_state().is_clean()


class TestFifoChannel:
    """A FIFO channel's start is checked where a system is started
    (``DataLinkSystem.started``), on either channel."""

    @pytest.fixture
    def system(self):
        return fifo_system(alternating_bit_protocol())

    def test_rejects_non_monotone_start(self, system):
        fifo = PermissiveChannelState()
        bad = PermissiveChannelState(delivery=DeliverySet((2, 1), 2))
        for starts in ((bad, fifo), (fifo, bad)):
            with pytest.raises(DeliverySetError, match="monotone"):
                system.started(*starts)

    def test_rejects_non_monotone_seeded_draw_at_construction(self, system):
        # A seeded set is drawn on demand, but the monotonicity check
        # still runs when the started system is built, not at the first
        # receive.
        delivery = random_reordering(0, 0.0, 8, 64)
        assert not random_reordering(0, 0.0, 8, 64).is_monotone()
        with pytest.raises(DeliverySetError, match="monotone"):
            system.started(
                PermissiveChannelState(delivery=delivery), PermissiveChannelState()
            )

    def test_accepts_monotone_lossy(self, system):
        start = PermissiveChannelState(delivery=DeliverySet((2, 4), 2))
        started = system.started(start, start)
        assert started.initial_state()[2:] == (start, start)
        # A seeded monotone set passes the check without being drawn.
        seeded = random_lossy_fifo(0, 0.5, 64)
        system.started(PermissiveChannelState(delivery=seeded), start)
        assert "prefix" not in vars(seeded)


def scratch_deliverable(state):
    """``deliverable()`` recomputed from the delivery set alone."""
    i = state.delivery.source_of(state.counter2 + 1)
    return (i, state.sent[i - 1]) if i <= state.counter1 else None


class TestKeptDelivery:
    """The kept next delivery (``due``) never goes stale.

    Random walks send, receive, rewrite the delivery set (Lemmas 6.3 and
    6.5-6.7), rename messages, strip uids and pickle, and check the
    precondition against a from-scratch answer after every step.
    """

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize(
        "delivery",
        [
            lambda seed: random_reordering(seed, 0.3, 4, 48),
            lambda seed: random_lossy_fifo(seed, 0.3, 48),
        ],
        ids=["reordering", "lossy_fifo"],
    )
    def test_random_walk(self, seed, delivery):
        rng = random.Random(seed)
        channel = PermissiveChannel("t", "r")
        state = PermissiveChannelState(delivery=delivery(seed))
        for step in range(200):
            move = rng.random()
            if move < 0.45:
                packet = Packet("h", (Message(step, "s"),), uid=step)
                state = channel.step(state, send_pkt("t", "r", packet))
            elif move < 0.8:
                for action in channel.enabled_local_actions(state):
                    state = channel.step(state, action)
            elif move < 0.84:
                state = channel.make_clean(state)
            elif move < 0.88:
                in_transit = list(state.in_transit_indices())
                picked = rng.sample(in_transit, rng.randint(0, len(in_transit)))
                state = channel.with_waiting(state, picked)
            elif move < 0.92:
                sent = {packet.body[0] for packet in state.sent}
                renaming = {m: Message(m.ident + 1000, "s") for m in sent}
                state = rename_messages(state, renaming)
            elif move < 0.96:
                state = strip_uids(state)
            else:
                state = pickle.loads(pickle.dumps(state))
            assert state.deliverable() == scratch_deliverable(state)
            fresh = PermissiveChannelState(
                state.counter1, state.counter2, state.sent, state.delivery
            )
            assert fresh == state and hash(fresh) == hash(state)
            assert repr(fresh) == repr(state)

    def test_states_differing_only_in_due_are_equal(self, channel):
        state = send_all(channel, channel.initial_state(), packets(3))
        assert state.due is None  # no one has asked yet
        state.deliverable()
        kept = channel.step(state, send_pkt("t", "r", Packet("h4", (), uid=4)))
        assert kept.due == state.due == 1  # carried over by the send
        fresh = PermissiveChannelState(
            kept.counter1, kept.counter2, kept.sent, kept.delivery
        )
        assert fresh.due is None
        assert fresh == kept
        assert hash(fresh) == hash(kept)
        assert repr(fresh) == repr(kept)
        assert fresh.deliverable() == kept.deliverable()

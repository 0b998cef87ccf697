"""Tests for the channel-state surgeries realizing Lemmas 6.3-6.7."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.alphabets import Packet
from repro.channels import (
    ChannelSurgeryError,
    DeliverySet,
    DeliverySetError,
    PermissiveChannel,
    PermissiveFifoChannel,
    receive_pkt,
    send_pkt,
)
from repro.channels.delivery_set import random_lossy_fifo, random_reordering

from .test_delivery_set import delivery_sets, monotone_delivery_sets


def packets(n):
    return [Packet(f"h{i}", (), uid=i) for i in range(1, n + 1)]


def loaded_channel(channel, n, deliver=0):
    """Channel with n sends and ``deliver`` deliveries performed."""
    state = channel.initial_state()
    for packet in packets(n):
        state = channel.step(state, send_pkt("t", "r", packet))
    for _ in range(deliver):
        (action,) = list(channel.enabled_local_actions(state))
        state = channel.step(state, action)
    return state


class TestMakeClean:
    """Lemma 6.3: every schedule can leave the channel clean."""

    def test_clean_after_sends(self):
        channel = PermissiveChannel("t", "r")
        state = loaded_channel(channel, 5)
        cleaned = channel.make_clean(state)
        assert cleaned.is_clean()
        # Everything in transit is lost: nothing deliverable.
        assert cleaned.deliverable() is None
        assert cleaned.waiting_sequence() == ()

    def test_clean_preserves_consumed_slots(self):
        channel = PermissiveChannel("t", "r")
        state = loaded_channel(channel, 5, deliver=2)
        cleaned = channel.make_clean(state)
        assert cleaned.delivered_indices() == state.delivered_indices()

    def test_clean_future_is_fifo(self):
        channel = PermissiveChannel("t", "r")
        state = channel.make_clean(loaded_channel(channel, 3, deliver=1))
        # The next send is delivered next, FIFO with no losses.
        new_packet = Packet("new", (), uid=99)
        state = channel.step(state, send_pkt("t", "r", new_packet))
        assert state.deliverable() == (4, new_packet)

    def test_clean_on_fifo_channel_stays_monotone(self):
        channel = PermissiveFifoChannel("t", "r")
        state = channel.make_clean(loaded_channel(channel, 4, deliver=2))
        assert state.delivery.is_monotone()

    def test_clean_is_idempotent(self):
        channel = PermissiveChannel("t", "r")
        state = channel.make_clean(loaded_channel(channel, 4))
        assert channel.make_clean(state) == state


class TestWithWaiting:
    """Lemmas 6.5-6.7: scheduling chosen in-transit packets."""

    def test_waiting_packets_scheduled_in_order(self):
        channel = PermissiveChannel("t", "r")
        state = loaded_channel(channel, 5)
        surgered = channel.with_waiting(state, [4, 2])
        pkts = packets(5)
        assert surgered.waiting_sequence() == (pkts[3], pkts[1])

    def test_non_fifo_order_allowed_on_cbar(self):
        """Lemma 6.7: any sequence of in-transit packets can wait."""
        channel = PermissiveChannel("t", "r")
        state = loaded_channel(channel, 5)
        surgered = channel.with_waiting(state, [5, 1, 3])
        assert [p.uid for p in surgered.waiting_sequence()] == [5, 1, 3]

    def test_non_fifo_order_rejected_on_chat(self):
        from repro.channels.delivery_set import DeliverySetError

        channel = PermissiveFifoChannel("t", "r")
        state = loaded_channel(channel, 5)
        with pytest.raises(DeliverySetError):
            channel.with_waiting(state, [3, 1])

    def test_fifo_subsequence_allowed_on_chat(self):
        """Lemma 6.6 on C-hat: any subsequence of waiting packets."""
        channel = PermissiveFifoChannel("t", "r")
        state = loaded_channel(channel, 5)
        surgered = channel.with_waiting(state, [2, 5])
        assert [p.uid for p in surgered.waiting_sequence()] == [2, 5]
        assert surgered.delivery.is_monotone()

    def test_drained_channel_is_clean_afterwards(self):
        channel = PermissiveChannel("t", "r")
        state = channel.with_waiting(loaded_channel(channel, 3), [2])
        (action,) = list(channel.enabled_local_actions(state))
        state = channel.step(state, action)
        assert state.is_clean()

    def test_unsent_index_rejected(self):
        channel = PermissiveChannel("t", "r")
        state = loaded_channel(channel, 2)
        with pytest.raises(ChannelSurgeryError):
            channel.with_waiting(state, [3])

    def test_delivered_index_rejected(self):
        channel = PermissiveChannel("t", "r")
        state = loaded_channel(channel, 3, deliver=1)
        with pytest.raises(ChannelSurgeryError):
            channel.with_waiting(state, [1])

    def test_duplicate_index_rejected(self):
        channel = PermissiveChannel("t", "r")
        state = loaded_channel(channel, 3)
        with pytest.raises(ChannelSurgeryError):
            channel.with_waiting(state, [2, 2])

    def test_rewrite_cannot_change_history(self):
        channel = PermissiveChannel("t", "r")
        state = loaded_channel(channel, 3, deliver=2)
        # Craft a delivery set disagreeing on consumed slot 1.
        bogus = DeliverySet((3, 2), 1)
        with pytest.raises(ChannelSurgeryError):
            channel._rewrite(state, bogus)

    def test_rewrite_names_the_first_changed_slot(self):
        channel = PermissiveChannel("t", "r")
        state = loaded_channel(channel, 3, deliver=2)
        # Agrees on consumed slot 1, disagrees on consumed slot 2.
        bogus = DeliverySet((1, 3), 1)
        with pytest.raises(ChannelSurgeryError, match="consumed slot 2$"):
            channel._rewrite(state, bogus)

    def test_empty_waiting_equals_clean(self):
        channel = PermissiveChannel("t", "r")
        state = loaded_channel(channel, 3)
        assert channel.with_waiting(state, []) == channel.make_clean(state)


# ----------------------------------------------------------------------
# Property tests: Lemmas 6.1-6.7 invariants under random channel states
# ----------------------------------------------------------------------


@st.composite
def channel_states(draw, fifo: bool = False):
    """A random reachable channel state: seeded delivery set, random
    waiting packet sequence (sends), and as many deliveries as the
    delivery set permits."""
    seed = draw(st.integers(0, 2**16))
    loss = draw(st.sampled_from([0.0, 0.2, 0.5]))
    if fifo:
        delivery = random_lossy_fifo(seed, loss, horizon=16)
        channel = PermissiveFifoChannel("t", "r", initial_delivery=delivery)
    else:
        window = draw(st.integers(1, 6))
        delivery = random_reordering(seed, loss, window, horizon=16)
        channel = PermissiveChannel("t", "r", initial_delivery=delivery)
    sends = draw(st.integers(0, 12))
    state = channel.initial_state()
    for packet in packets(sends):
        state = channel.step(state, send_pkt("t", "r", packet))
    deliveries = draw(st.integers(0, sends))
    for _ in range(deliveries):
        deliverable = state.deliverable()
        if deliverable is None:
            break
        state = channel.step(
            state, receive_pkt("t", "r", deliverable[1])
        )
    return channel, state


class TestSurgeryProperties:
    """Random-state invariants for the Section 6.3 surgeries."""

    @given(channel_states())
    @settings(max_examples=60, deadline=None)
    def test_make_clean_is_clean_and_idempotent(self, cs):
        channel, state = cs
        cleaned = channel.make_clean(state)
        assert cleaned.is_clean()
        # Lemma 6.3 surgery is idempotent: cleaning twice is cleaning once.
        assert channel.make_clean(cleaned) == cleaned

    @given(channel_states())
    @settings(max_examples=60, deadline=None)
    def test_make_clean_preserves_history(self, cs):
        channel, state = cs
        cleaned = channel.make_clean(state)
        assert cleaned.delivered_indices() == state.delivered_indices()
        assert cleaned.counter1 == state.counter1
        assert cleaned.counter2 == state.counter2
        assert cleaned.waiting_sequence() == ()

    @given(channel_states(fifo=True))
    @settings(max_examples=60, deadline=None)
    def test_make_clean_preserves_monotonicity(self, cs):
        channel, state = cs
        assert channel.make_clean(state).delivery.is_monotone()

    @given(channel_states(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_with_waiting_schedules_exactly_the_subsequence(self, cs, data):
        channel, state = cs
        transit = list(state.in_transit_indices())
        chosen = data.draw(st.permutations(transit))
        keep = data.draw(st.integers(0, len(chosen)))
        indices = list(chosen[:keep])
        surgered = channel.with_waiting(state, indices)
        # Lemma 6.6/6.7: exactly the chosen packets wait, in order.
        assert [
            p.uid for p in surgered.waiting_sequence()
        ] == [state.sent[i - 1].uid for i in indices]
        assert surgered.delivered_indices() == state.delivered_indices()

    @given(channel_states(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_with_waiting_drains_to_clean(self, cs, data):
        channel, state = cs
        transit = list(state.in_transit_indices())
        keep = data.draw(st.integers(0, len(transit)))
        indices = data.draw(st.permutations(transit))[:keep]
        surgered = channel.with_waiting(state, list(indices))
        for _ in range(len(indices)):
            deliverable = surgered.deliverable()
            assert deliverable is not None
            surgered = channel.step(
                surgered, receive_pkt("t", "r", deliverable[1])
            )
        # After the scheduled subsequence drains, the channel is clean:
        # everything else in transit was lost, future sends are FIFO.
        assert surgered.is_clean()
        assert surgered.waiting_sequence() == ()

    @given(channel_states(fifo=True), st.data())
    @settings(max_examples=60, deadline=None)
    def test_fifo_with_waiting_keeps_monotone(self, cs, data):
        channel, state = cs
        # Lemma 6.5's precondition on C-hat: the waiting subsequence
        # must be increasing *and above every consumed index* -- an
        # in-transit packet overtaken by a later consumed one is lost
        # for good on a FIFO channel and cannot be scheduled to wait.
        consumed = max(
            [
                state.delivery.source_of(j)
                for j in range(1, state.counter2 + 1)
            ],
            default=0,
        )
        transit = sorted(
            i for i in state.in_transit_indices() if i > consumed
        )
        keep = data.draw(st.integers(0, len(transit)))
        indices = transit[len(transit) - keep :]
        surgered = channel.with_waiting(state, indices)
        assert surgered.delivery.is_monotone()

    @given(delivery_sets(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_delete_slot_shifting_law(self, delivery, data):
        j = data.draw(st.integers(1, max(1, len(delivery.prefix) + 3)))
        deleted_index = delivery.source_of(j)
        result = delivery.delete_slot(j)
        # Slots below j unchanged; slots at/above j shift down by one;
        # the deleted send index becomes lost (del, Section 6.3).
        for slot in range(1, j):
            assert result.source_of(slot) == delivery.source_of(slot)
        for slot in range(j, j + 6):
            assert result.source_of(slot) == delivery.source_of(slot + 1)
        assert result.is_lost(deleted_index)
        with pytest.raises(DeliverySetError):
            result.delete_pair(deleted_index, j)

    @given(monotone_delivery_sets(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_delete_slot_preserves_monotonicity(self, delivery, data):
        j = data.draw(st.integers(1, max(1, len(delivery.prefix) + 3)))
        assert delivery.delete_slot(j).is_monotone()

    @given(delivery_sets(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_delete_slots_order_independent(self, delivery, data):
        upper = len(delivery.prefix) + 3
        slots = data.draw(
            st.lists(st.integers(1, upper), max_size=4, unique=True)
        )
        expected = delivery.delete_slots(slots)
        # Deleting in any order (with shift-corrected slot numbers via
        # delete_slots' original-numbering contract) agrees.
        assert delivery.delete_slots(tuple(reversed(slots))) == expected

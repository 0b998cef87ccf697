"""Tests for the bounded-capacity non-FIFO channel (arXiv:1011.3632)."""

from __future__ import annotations

import pickle
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.alphabets import Packet
from repro.channels import (
    BoundedChannel,
    BoundedChannelState,
    receive_pkt,
    send_pkt,
)
from repro.channels.bounded import BoundedPlan


def packets(n):
    return [Packet(f"h{i}", (), uid=i) for i in range(1, n + 1)]


def started(**plan):
    """A start state carrying ``BoundedPlan(**plan)``."""
    return BoundedChannelState(plan=BoundedPlan(**plan))


def loaded_channel(channel, n, deliver=0, start=None):
    """Channel with n sends and up to ``deliver`` deliveries performed,
    from ``start`` (the channel's own start state if None)."""
    state = channel.initial_state() if start is None else start
    for packet in packets(n):
        state = channel.step(state, send_pkt("t", "r", packet))
    for _ in range(deliver):
        deliverable = channel.deliverable(state)
        if deliverable is None:
            break
        state = channel.step(state, receive_pkt("t", "r", deliverable[1]))
    return state


class TestBasics:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            BoundedPlan(capacity=0)

    def test_loss_rate_must_be_sub_unit(self):
        with pytest.raises(ValueError):
            BoundedPlan(loss_rate=1.0)

    def test_initial_state_is_clean_and_empty(self):
        channel = BoundedChannel("t", "r")
        state = channel.initial_state()
        assert state.plan == BoundedPlan()
        assert state.occupancy() == 0
        assert channel.deliverable(state) is None

    def test_lossless_fifo_when_unconfigured(self):
        channel = BoundedChannel("t", "r")
        state = loaded_channel(channel, 3)
        order = []
        while channel.deliverable(state) is not None:
            index, packet = channel.deliverable(state)
            order.append(packet.uid)
            state = channel.step(state, receive_pkt("t", "r", packet))
        assert order == [1, 2, 3]

    def test_overflow_drops_and_counts(self):
        channel = BoundedChannel("t", "r")
        state = loaded_channel(channel, 5, start=started(capacity=2))
        assert state.occupancy() == 2
        assert state.dropped == 3
        assert state.counter1 == 5

    def test_plan_losses_are_not_overflow_drops(self):
        # With certain loss on index 1 (seed chosen so the first draw
        # loses), the packet vanishes without touching ``dropped``.
        channel = BoundedChannel("t", "r")
        state = channel.step(
            started(seed=0, loss_rate=0.999, horizon=1024),
            send_pkt("t", "r", packets(1)[0]),
        )
        assert state.occupancy() == 0
        assert state.dropped == 0
        assert state.counter1 == 1

    def test_same_seed_same_plan(self):
        knobs = dict(seed=9, loss_rate=0.4, reorder_window=3, horizon=1024)
        a_plan, b_plan = started(**knobs).plan, started(**knobs).plan
        assert a_plan.verdicts == b_plan.verdicts

    def test_channel_is_declared_non_fifo(self):
        assert BoundedChannel.fifo_only is False

    def test_wake_fail_crash_are_no_ops(self):
        from repro.channels.actions import crash, fail, wake

        channel = BoundedChannel("t", "r")
        state = loaded_channel(channel, 2)
        for action in (wake("t", "r"), fail("t", "r"), crash("t", "r")):
            assert channel.transitions(state, action) == (state,)


class TestPlanInState:
    """The adversary plan rides in the state but is no part of its identity."""

    def states(self):
        # Two starts that differ only in their plans: one loses send 1
        # outright (seed 0's first draw), the other delivers it.
        keep = BoundedChannelState(plan=BoundedPlan(horizon=1))
        lose = BoundedChannelState(plan=BoundedPlan(0, 0.999, horizon=1))
        return keep, lose

    def test_equal_and_hash_equal_but_step_differently(self):
        keep, lose = self.states()
        assert keep == lose and hash(keep) == hash(lose)
        assert repr(keep) == repr(lose)
        channel = BoundedChannel("t", "r")
        send = send_pkt("t", "r", packets(1)[0])
        assert channel.step(keep, send).occupancy() == 1
        assert channel.step(lose, send).occupancy() == 0

    def test_steps_carry_the_plan(self):
        start = started(seed=3, loss_rate=0.3, reorder_window=3, horizon=1024)
        state = loaded_channel(BoundedChannel("t", "r"), 6, 2, start)
        assert state.plan is start.plan

    def test_plan_survives_pickling(self):
        state = loaded_channel(
            BoundedChannel("t", "r"),
            4,
            start=started(seed=5, loss_rate=0.3, horizon=1024, capacity=3),
        )
        shipped = pickle.dumps(state)
        loaded = pickle.loads(shipped)
        assert loaded == state
        assert loaded.plan == state.plan
        assert loaded.plan.capacity == 3
        # The plan travels as its fields and draws its verdicts anew.
        assert b"verdicts" not in shipped
        assert loaded.plan.verdicts == state.plan.verdicts


# ----------------------------------------------------------------------
# Property tests: the capacity invariant and conservation laws under
# random seeded adversaries and random send/deliver interleavings
# ----------------------------------------------------------------------


@st.composite
def bounded_runs(draw):
    """A seeded bounded channel plus a random send/deliver interleaving.

    Returns (channel, trajectory, delivered_uids, sent_uids): every
    state the run visited, and the uid multiset actually delivered.
    """
    seed = draw(st.integers(0, 2**16))
    capacity = draw(st.integers(1, 5))
    loss = draw(st.sampled_from([0.0, 0.2, 0.5]))
    window = draw(st.integers(1, 6))
    channel = BoundedChannel("t", "r")
    moves = draw(
        st.lists(st.sampled_from(["send", "deliver"]), max_size=30)
    )
    state = started(
        seed=seed,
        loss_rate=loss,
        reorder_window=window,
        capacity=capacity,
        horizon=32,
    )
    trajectory = [state]
    sent = []
    delivered = []
    next_uid = 1
    for move in moves:
        if move == "send":
            packet = Packet(f"h{next_uid}", (), uid=next_uid)
            sent.append(next_uid)
            next_uid += 1
            state = channel.step(state, send_pkt("t", "r", packet))
        else:
            deliverable = channel.deliverable(state)
            if deliverable is None:
                continue
            delivered.append(deliverable[1].uid)
            state = channel.step(
                state, receive_pkt("t", "r", deliverable[1])
            )
        trajectory.append(state)
    return channel, trajectory, delivered, sent


class TestBoundedProperties:
    @given(bounded_runs())
    @settings(max_examples=80, deadline=None)
    def test_capacity_is_a_hard_invariant(self, run):
        _, trajectory, _, _ = run
        capacity = trajectory[0].plan.capacity
        for state in trajectory:
            assert state.occupancy() <= capacity

    @given(bounded_runs())
    @settings(max_examples=80, deadline=None)
    def test_delivered_multiset_within_sent_multiset(self, run):
        _, _, delivered, sent = run
        assert not (Counter(delivered) - Counter(sent))
        # No duplication either: each send delivers at most once.
        assert all(n == 1 for n in Counter(delivered).values())

    @given(bounded_runs())
    @settings(max_examples=80, deadline=None)
    def test_counters_account_for_every_send(self, run):
        channel, trajectory, delivered, sent = run
        final = trajectory[-1]
        assert final.counter1 == len(sent)
        assert final.counter2 == len(delivered)
        # Sends split exactly into buffered + delivered + lost (plan
        # losses and overflow drops).
        lost = final.counter1 - final.occupancy() - final.counter2
        assert lost >= final.dropped >= 0

"""A bounded-capacity non-FIFO lossy channel (Dolev et al., arXiv:1011.3632).

The self-stabilization literature models the data-link medium as a
*bounded-capacity* non-FIFO channel: at most ``capacity`` packets are in
transit at any moment, a send into a full channel is dropped, and
delivery order is adversarial within a bounded reordering window.
``BoundedChannel`` realizes that family alongside the paper's C-hat /
C-bar: capacity is a *hard invariant* of the transition relation (no
reachable state holds more than ``capacity`` buffered packets), and the
adversary (which sends are lost, how deliveries are reordered) is fixed
up front from a seed, so fuzz campaigns replay exactly.

Unlike the permissive channels, whose adversary is a retroactively
rewritten delivery set, the bounded channel keeps an explicit in-transit
buffer.  The seeded plan assigns each send index a *delivery priority*
(its index plus a bounded offset) and a loss verdict; delivery always
picks the buffered packet with the smallest priority, so the channel
drains whenever it is scheduled and retransmitting protocols still
quiesce.  Beyond ``horizon`` the plan is FIFO and lossless (overflow
drops aside), mirroring the delivery-set channels' eventually-clean
tails.  Like a permissive channel's delivery set, the plan is part of
the start state (Section 2.2), so one channel automaton serves every seed.

The Lemma 6.x-style surgeries (``make_clean``, ``with_waiting``,
``lose_all_in_transit``) rewrite the buffer instead of a delivery set:
a clean bounded channel is simply an empty buffer whose future sends
bypass the adversarial plan (tracked by ``surgery_floor``).
"""

from __future__ import annotations

import random
from dataclasses import astuple, dataclass, field
from functools import cached_property
from typing import Hashable, Iterable, Optional, Sequence, Tuple

from ..alphabets import Packet
from ..hashing import cached_hash
from ..ioa.actions import Action
from ..ioa.automaton import Automaton
from ..ioa.signature import ActionSignature
from .actions import (
    CRASH,
    FAIL,
    RECEIVE_PKT,
    SEND_PKT,
    WAKE,
    ReceiveActions,
    physical_layer_signature,
)
from .permissive import ChannelSurgeryError


@dataclass(frozen=True)
class BoundedPlan:
    """A bounded channel's adversary: capacity and seeded per-send verdicts.

    Send index ``i <= horizon`` is lost if ``lost[i-1]`` and otherwise
    delivers with priority ``i + offsets[i-1]``; later sends are
    lossless and FIFO.  The verdicts are drawn on first use from the
    fields alone (no hash() or draw order), so a plan replays in any
    process and pickles as its fields.  The default plan is lossless
    FIFO throughout.
    """

    seed: int = 0
    loss_rate: float = 0.0
    reorder_window: int = 1
    horizon: int = 0
    capacity: int = 4

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ValueError("capacity must be positive")
        if not 0.0 <= self.loss_rate < 1.0:
            raise ValueError("loss_rate must be in [0, 1)")
        if self.reorder_window < 1:
            raise ValueError("reorder_window must be positive")

    def __reduce__(self):
        return BoundedPlan, astuple(self)

    @cached_property
    def verdicts(self) -> Tuple[Tuple[bool, ...], Tuple[int, ...]]:
        """``(lost, offsets)`` over send indices ``1..horizon``."""
        rng = random.Random(self.seed)
        lost = []
        offsets = []
        for _ in range(self.horizon):
            lost.append(rng.random() < self.loss_rate)
            offsets.append(rng.randrange(self.reorder_window))
        return tuple(lost), tuple(offsets)


@cached_hash
@dataclass(frozen=True)
class BoundedChannelState:
    """The state of a bounded-capacity channel.

    ``counter1``/``counter2`` count ``send_pkt``/``receive_pkt`` events
    (matching the permissive channels); ``buffer`` holds the in-transit
    ``(send index, packet)`` pairs in send order; ``dropped`` counts
    overflow drops (sends into a full channel).  ``surgery_floor`` and
    ``forced`` record adversary surgeries: sends with index above a
    positive ``surgery_floor`` bypass the loss/reorder plan, and a
    non-empty ``forced`` pins the exact order of the next deliveries.
    ``plan`` is the adversary fixed at the start, which every step
    carries along and equality, hashing and ``repr`` ignore.
    """

    counter1: int = 0
    counter2: int = 0
    buffer: Tuple[Tuple[int, Packet], ...] = ()
    dropped: int = 0
    surgery_floor: int = 0
    forced: Tuple[int, ...] = ()
    plan: BoundedPlan = field(default=BoundedPlan(), compare=False, repr=False)

    def in_transit_indices(self) -> Tuple[int, ...]:
        """Send indices currently buffered, in send order."""
        return tuple(index for index, _ in self.buffer)

    def occupancy(self) -> int:
        """How many packets are in transit."""
        return len(self.buffer)

    def is_clean(self) -> bool:
        """Empty buffer, future sends FIFO and lossless."""
        return not self.buffer and (
            self.surgery_floor >= self.counter1 or self.counter1 == 0
        )


class BoundedChannel(Automaton):
    """A bounded-capacity non-FIFO lossy physical channel.

    ``capacity`` bounds the in-transit buffer (a hard invariant: a send
    into a full buffer is dropped, never queued).  ``loss_rate`` and
    ``reorder_window`` parameterize a seeded adversary plan over send
    indices ``1..horizon``; beyond the horizon the channel is FIFO and
    lossless, which preserves the harness's quiescence guarantee for
    retransmitting protocols.  The arguments choose the start state's
    :class:`BoundedPlan`; a step follows the plan of its pre-state.
    Deliveries are enumerated through ``receives``, as in
    :class:`~repro.channels.permissive.PermissiveChannel`.
    """

    fifo_only = False

    def __init__(
        self,
        src: str,
        dst: str,
        seed: int = 0,
        loss_rate: float = 0.0,
        reorder_window: int = 1,
        horizon: int = 1024,
        capacity: int = 4,
        name: Optional[str] = None,
    ):
        plan = BoundedPlan(seed, loss_rate, reorder_window, horizon, capacity)
        self._start = BoundedChannelState(plan=plan)
        self.src = src
        self.dst = dst
        self.receives = ReceiveActions(src, dst)
        self._signature = physical_layer_signature(src, dst)
        self.name = name or f"bounded[{src}->{dst}]"

    # ------------------------------------------------------------------

    @property
    def signature(self) -> ActionSignature:
        return self._signature

    def initial_state(self) -> BoundedChannelState:
        return self._start

    def _is_lost(self, state: BoundedChannelState, index: int) -> bool:
        """Does the adversary plan drop this send?

        Surgered states exempt post-surgery sends (``index`` above the
        floor) so a clean channel stays lossless, exactly like the
        rewritten delivery sets' FIFO tails.
        """
        if state.surgery_floor and index > state.surgery_floor:
            return False
        lost = state.plan.verdicts[0]
        return index <= len(lost) and lost[index - 1]

    def _priority(self, state: BoundedChannelState, index: int) -> int:
        """The delivery priority of a buffered send index (smaller first)."""
        if state.surgery_floor and index > state.surgery_floor:
            return index
        offsets = state.plan.verdicts[1]
        return index + offsets[index - 1] if index <= len(offsets) else index

    def deliverable(
        self, state: BoundedChannelState
    ) -> Optional[Tuple[int, Packet]]:
        """The unique (send index, packet) the channel delivers next."""
        if state.forced:
            head = state.forced[0]
            for index, packet in state.buffer:
                if index == head:
                    return (index, packet)
            return None
        if not state.buffer:
            return None
        return min(
            state.buffer,
            key=lambda entry: (self._priority(state, entry[0]), entry[0]),
        )

    def transitions(
        self, state: BoundedChannelState, action: Action
    ) -> Tuple[BoundedChannelState, ...]:
        if not self._signature.contains(action):
            return ()
        if action.name == SEND_PKT:
            index = state.counter1 + 1
            buffer, dropped = state.buffer, state.dropped
            if not self._is_lost(state, index):
                if len(buffer) < state.plan.capacity:
                    buffer += ((index, action.payload),)
                else:
                    # The hard capacity invariant: a full channel drops.
                    dropped += 1
            return (
                BoundedChannelState(
                    index,
                    state.counter2,
                    buffer,
                    dropped,
                    state.surgery_floor,
                    state.forced,
                    state.plan,
                ),
            )
        if action.name == RECEIVE_PKT:
            deliverable = self.deliverable(state)
            if deliverable is None or deliverable[1] != action.payload:
                return ()
            index = deliverable[0]
            buffer = tuple(
                entry for entry in state.buffer if entry[0] != index
            )
            forced = state.forced
            if forced and forced[0] == index:
                forced = forced[1:]
            return (
                BoundedChannelState(
                    state.counter1,
                    state.counter2 + 1,
                    buffer,
                    state.dropped,
                    state.surgery_floor,
                    forced,
                    state.plan,
                ),
            )
        if action.name in (WAKE, FAIL, CRASH):
            return (state,)
        return ()

    def enabled_local_actions(
        self, state: BoundedChannelState
    ) -> Iterable[Action]:
        deliverable = self.deliverable(state)
        if deliverable is not None:
            yield self.receives[deliverable[1]]

    def task_of(self, action: Action) -> Hashable:
        return (self.name, "deliver")

    def tasks(self) -> Iterable[Hashable]:
        return [(self.name, "deliver")]

    # ------------------------------------------------------------------
    # Adversary surgeries (the bounded analogue of Lemmas 6.3, 6.5-6.7)
    # ------------------------------------------------------------------

    def make_clean(self, state: BoundedChannelState) -> BoundedChannelState:
        """Lemma 6.3 analogue: lose everything in transit, then be FIFO.

        Every buffered packet is dropped and future sends bypass the
        adversary plan, so the channel acts FIFO with no losses from now
        on (overflow aside, which an empty buffer makes unreachable
        until ``capacity`` sends race ahead of delivery).
        """
        return BoundedChannelState(
            state.counter1,
            state.counter2,
            (),
            state.dropped,
            state.counter1,
            (),
            state.plan,
        )

    def with_waiting(
        self, state: BoundedChannelState, indices: Sequence[int]
    ) -> BoundedChannelState:
        """Lemmas 6.5-6.7 analogue: exactly ``indices`` deliver next, in order.

        The indices must be distinct and currently in transit.  Every
        other buffered packet is lost, and after the forced deliveries
        drain the channel is clean.
        """
        in_transit = {index: packet for index, packet in state.buffer}
        seen = set()
        for index in indices:
            if index not in in_transit:
                raise ChannelSurgeryError(
                    f"send index {index} is not in transit"
                )
            if index in seen:
                raise ChannelSurgeryError(
                    f"send index {index} scheduled twice"
                )
            seen.add(index)
        buffer = tuple(
            (index, in_transit[index]) for index in indices
        )
        return BoundedChannelState(
            state.counter1,
            state.counter2,
            buffer,
            state.dropped,
            state.counter1,
            tuple(indices),
            state.plan,
        )

    def lose_all_in_transit(
        self, state: BoundedChannelState
    ) -> BoundedChannelState:
        """Lemma 6.6 with the empty subsequence: lose everything in transit."""
        return self.make_clean(state)

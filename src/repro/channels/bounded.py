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
tails.

The Lemma 6.x-style surgeries (``make_clean``, ``with_waiting``,
``lose_all_in_transit``) rewrite the buffer instead of a delivery set:
a clean bounded channel is simply an empty buffer whose future sends
bypass the adversarial plan (tracked by ``surgery_floor``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
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
    """

    counter1: int = 0
    counter2: int = 0
    buffer: Tuple[Tuple[int, Packet], ...] = ()
    dropped: int = 0
    surgery_floor: int = 0
    forced: Tuple[int, ...] = ()

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
    retransmitting protocols.  Deliveries are enumerated through
    ``receives``, as in :class:`~repro.channels.permissive.PermissiveChannel`.
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
        if capacity < 1:
            raise ValueError("capacity must be positive")
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError("loss_rate must be in [0, 1)")
        if reorder_window < 1:
            raise ValueError("reorder_window must be positive")
        self.src = src
        self.dst = dst
        self.capacity = capacity
        self.receives = ReceiveActions(src, dst)
        self.horizon = horizon
        # The whole adversary is fixed here, from the seed alone: which
        # send indices are lost and each index's delivery priority.
        # Nothing downstream may depend on hash() or draw order, so the
        # plan replays identically in any process.
        rng = random.Random(seed)
        lost = []
        offsets = []
        for _ in range(horizon):
            lost.append(rng.random() < loss_rate)
            offsets.append(rng.randrange(reorder_window))
        self._lost = tuple(lost)
        self._offsets = tuple(offsets)
        self._signature = physical_layer_signature(src, dst)
        self.name = name or f"bounded[{src}->{dst},cap={capacity}]"

    # ------------------------------------------------------------------

    @property
    def signature(self) -> ActionSignature:
        return self._signature

    def initial_state(self) -> BoundedChannelState:
        return BoundedChannelState()

    def _is_lost(self, state: BoundedChannelState, index: int) -> bool:
        """Does the adversary plan drop this send?

        Surgered states exempt post-surgery sends (``index`` above the
        floor) so a clean channel stays lossless, exactly like the
        rewritten delivery sets' FIFO tails.
        """
        if state.surgery_floor and index > state.surgery_floor:
            return False
        if index > self.horizon:
            return False
        return self._lost[index - 1]

    def _priority(self, state: BoundedChannelState, index: int) -> int:
        """The delivery priority of a buffered send index (smaller first)."""
        if state.surgery_floor and index > state.surgery_floor:
            return index
        if index > self.horizon:
            return index
        return index + self._offsets[index - 1]

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
            if self._is_lost(state, index):
                return (
                    BoundedChannelState(
                        index,
                        state.counter2,
                        state.buffer,
                        state.dropped,
                        state.surgery_floor,
                        state.forced,
                    ),
                )
            if len(state.buffer) >= self.capacity:
                # The hard capacity invariant: a full channel drops.
                return (
                    BoundedChannelState(
                        index,
                        state.counter2,
                        state.buffer,
                        state.dropped + 1,
                        state.surgery_floor,
                        state.forced,
                    ),
                )
            return (
                BoundedChannelState(
                    index,
                    state.counter2,
                    state.buffer + ((index, action.payload),),
                    state.dropped,
                    state.surgery_floor,
                    state.forced,
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
        )

    def lose_all_in_transit(
        self, state: BoundedChannelState
    ) -> BoundedChannelState:
        """Lemma 6.6 with the empty subsequence: lose everything in transit."""
        return self.make_clean(state)

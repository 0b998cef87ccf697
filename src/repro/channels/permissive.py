"""The permissive physical channels C-bar and C-hat (paper, Sections 6.1-6.2).

``PermissiveChannel`` is the paper's universal channel ``C-bar^{x,xbar}``:
its state holds two counters, the partial map ``packet`` from send indices
to packets, and a :class:`~repro.channels.delivery_set.DeliverySet` ``S``
fixing which sends are delivered at which receive slots.  The
``receive_pkt(p)`` precondition is that ``packet(i) = p`` for the ``i``
with ``(i, counter2 + 1) in S``; only a receive moves that ``i``, so a
state keeps it (``due``) across sends.  ``fail``/``wake``/``crash`` inputs
have no effect.  All outputs form a single task.

``PermissiveFifoChannel`` is ``C-hat``: identical, but its delivery set is
required to be monotone, which makes it a FIFO physical channel.

The paper resolves the channel's start-state nondeterminism (the choice
of ``S``) *retroactively*: Lemmas 6.3 and 6.5-6.7 argue that a given
schedule "can leave" the channel in a state with a rewritten delivery
set, provided the rewrite agrees with the old set on the receive slots
already consumed.  The surgery functions below construct exactly those
rewritten states; each validates the agreement condition, so a surgered
state is always reachable by the same schedule under a different (legal)
initial ``S``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
from .delivery_set import DeliverySet, DeliverySetError


class ChannelSurgeryError(ValueError):
    """Raised when a requested channel-state rewrite is not legal."""


@cached_hash
@dataclass(frozen=True)
class PermissiveChannelState:
    """The state of C-bar / C-hat.

    ``counter1`` counts ``send_pkt`` events, ``counter2`` counts
    ``receive_pkt`` events, ``sent[i-1]`` is ``packet(i)``, and
    ``delivery`` is the delivery set ``S``.  ``due`` is slot
    ``counter2 + 1``'s send index: a send carries it over, any other new
    state computes it on first use, and equality, hashing and ``repr``
    ignore it.
    """

    counter1: int = 0
    counter2: int = 0
    sent: Tuple[Packet, ...] = ()
    delivery: DeliverySet = DeliverySet.fifo()
    due: Optional[int] = field(default=None, init=False, compare=False, repr=False)

    # -- derived views --------------------------------------------------

    def packet_at(self, i: int) -> Optional[Packet]:
        """``packet(i)``: the packet of the ``i``-th send, if it happened."""
        if 1 <= i <= self.counter1:
            return self.sent[i - 1]
        return None

    def deliverable(self) -> Optional[Tuple[int, Packet]]:
        """The (send index, packet) the channel may deliver next, if any.

        This is the packet satisfying the ``receive_pkt`` precondition:
        the delivery set's source for slot ``counter2 + 1``, provided
        that send has already occurred.
        """
        i = self.due
        if i is None:
            i = self.delivery.source_of(self.counter2 + 1)
            object.__setattr__(self, "due", i)
        return (i, self.sent[i - 1]) if i <= self.counter1 else None

    def delivered_indices(self) -> Tuple[int, ...]:
        """Send indices delivered so far, in delivery order."""
        return self.delivery.sources(self.counter2)

    def in_transit_indices(self) -> Tuple[int, ...]:
        """Send indices sent but not (yet) delivered, in send order.

        These are the packets "in transit" in the sense of Section 6.3:
        ``send_pkt`` occurred, ``receive_pkt`` has not.
        """
        delivered = set(self.delivered_indices())
        return tuple(
            i for i in range(1, self.counter1 + 1) if i not in delivered
        )

    def waiting_sequence(self) -> Tuple[Packet, ...]:
        """The maximal sequence of packets *waiting* in this state.

        ``q1 .. qk`` is waiting if slot ``counter2 + l`` maps to an
        already-sent index for each ``l <= k`` (paper, Section 6.3).
        """
        waiting = []
        slot = self.counter2 + 1
        while True:
            i = self.delivery.source_of(slot)
            if i > self.counter1:
                break
            waiting.append(self.sent[i - 1])
            slot += 1
        return tuple(waiting)

    def is_clean(self) -> bool:
        """Cleanliness per Section 6.3.

        Clean means (i) no undelivered slot is assigned a send index
        ``<= counter1`` except via the FIFO tail condition, and (ii) slot
        ``counter2 + k`` maps to ``counter1 + k`` for all ``k > 0``: the
        channel is empty and will act FIFO with no losses from now on.
        """
        prefix_len = len(self.delivery.prefix)
        for j in range(self.counter2 + 1, prefix_len + 1):
            if self.delivery.source_of(j) != self.counter1 + (j - self.counter2):
                return False
        # Tail slots must continue the same pattern.
        first_tail_slot = max(prefix_len + 1, self.counter2 + 1)
        return self.delivery.source_of(first_tail_slot) == self.counter1 + (
            first_tail_slot - self.counter2
        )


class PermissiveChannel(Automaton):
    """The universal (non-FIFO) physical channel ``C-bar^{src,dst}``.

    The start state's delivery set defaults to FIFO/no-loss but may be
    any delivery set (the paper's arbitrary initial ``S``), given here
    or in a start state built outside.  ``receives`` is the
    :class:`~repro.channels.actions.ReceiveActions` the channel
    enumerates its deliveries through.
    """

    fifo_only = False

    def __init__(
        self,
        src: str,
        dst: str,
        initial_delivery: Optional[DeliverySet] = None,
        name: Optional[str] = None,
    ):
        self.src = src
        self.dst = dst
        self._initial_delivery = (
            DeliverySet.fifo() if initial_delivery is None else initial_delivery
        )
        self._validate_delivery(self._initial_delivery)
        self._signature = physical_layer_signature(src, dst)
        self._direction = (src, dst)
        self.receives = ReceiveActions(src, dst)
        self.name = name or f"channel[{src}->{dst}]"

    # ------------------------------------------------------------------

    def _validate_delivery(self, delivery: DeliverySet) -> None:
        if self.fifo_only and not delivery.is_monotone():
            raise DeliverySetError(
                "a FIFO physical channel requires a monotone delivery set"
            )

    @property
    def signature(self) -> ActionSignature:
        return self._signature

    def initial_state(self) -> PermissiveChannelState:
        return PermissiveChannelState(delivery=self._initial_delivery)

    def transitions(
        self, state: PermissiveChannelState, action: Action
    ) -> Tuple[PermissiveChannelState, ...]:
        # Every family of sig(C^{src,dst}) has direction (src, dst), so
        # matching the direction and then the name tests membership.
        if action.direction != self._direction:
            return ()
        name = action.name
        if name == SEND_PKT:
            post = PermissiveChannelState(
                state.counter1 + 1,
                state.counter2,
                state.sent + (action.payload,),
                state.delivery,
            )
            # A send moves no receive slot, so the next one's source stays.
            object.__setattr__(post, "due", state.due)
            return (post,)
        if name == RECEIVE_PKT:
            deliverable = state.deliverable()
            if deliverable is None or deliverable[1] != action.payload:
                return ()
            return (
                PermissiveChannelState(
                    state.counter1,
                    state.counter2 + 1,
                    state.sent,
                    state.delivery,
                ),
            )
        if name in (WAKE, FAIL, CRASH):
            return (state,)
        return ()

    def enabled_local_actions(
        self, state: PermissiveChannelState
    ) -> Tuple[Action, ...]:
        deliverable = state.deliverable()
        if deliverable is None:
            return ()
        return (self.receives[deliverable[1]],)

    def task_of(self, action: Action) -> Hashable:
        # All output actions in a single class (paper, Section 6.1).
        return (self.name, "deliver")

    def tasks(self) -> Iterable[Hashable]:
        return [(self.name, "deliver")]

    # ------------------------------------------------------------------
    # Adversary surgeries (Lemmas 6.3, 6.5, 6.6, 6.7)
    # ------------------------------------------------------------------

    def _rewrite(
        self, state: PermissiveChannelState, delivery: DeliverySet
    ) -> PermissiveChannelState:
        """Replace the delivery set, preserving consumed slots.

        The rewrite is legal only if the new set agrees with the old one
        on every receive slot already consumed -- that is the condition
        under which the same schedule could have been produced from a
        start state carrying the new set.
        """
        consumed = state.delivered_indices()
        rewritten = delivery.sources(state.counter2)
        if rewritten != consumed:
            j = next(
                j
                for j, (new, old) in enumerate(zip(rewritten, consumed), 1)
                if new != old
            )
            raise ChannelSurgeryError(
                f"rewrite changes already-consumed slot {j}"
            )
        self._validate_delivery(delivery)
        return PermissiveChannelState(
            state.counter1, state.counter2, state.sent, delivery
        )

    def make_clean(
        self, state: PermissiveChannelState
    ) -> PermissiveChannelState:
        """Lemma 6.3: a clean state reachable under the same schedule.

        Keeps the consumed slots and schedules slot ``counter2 + k`` to
        send ``counter1 + k``: every packet currently in transit is lost
        and the channel acts FIFO with no losses from now on.
        """
        consumed = state.delivered_indices()
        delivery = DeliverySet(consumed, state.counter1 - state.counter2)
        return self._rewrite(state, delivery)

    def with_waiting(
        self, state: PermissiveChannelState, indices: Sequence[int]
    ) -> PermissiveChannelState:
        """Lemmas 6.5/6.6/6.7: schedule exactly ``indices`` as the next deliveries.

        ``indices`` are send indices, which must be distinct, not yet
        delivered, and already sent (``<= counter1``).  After they drain
        the channel is clean (future sends delivered FIFO; every other
        packet currently in transit is lost).

        For a FIFO channel the indices must additionally keep the
        delivery set monotone (increasing, and above every consumed
        index), matching Lemma 6.5's use with ``C-hat``.
        """
        consumed = state.delivered_indices()
        delivered = set(consumed)
        seen = set()
        for i in indices:
            if not 1 <= i <= state.counter1:
                raise ChannelSurgeryError(
                    f"send index {i} has not occurred (counter1 = "
                    f"{state.counter1})"
                )
            if i in delivered:
                raise ChannelSurgeryError(f"send index {i} already delivered")
            if i in seen:
                raise ChannelSurgeryError(f"send index {i} scheduled twice")
            seen.add(i)
        prefix = consumed + tuple(indices)
        floor = max([state.counter1, *prefix]) if prefix else state.counter1
        delivery = DeliverySet(prefix, floor - len(prefix))
        return self._rewrite(state, delivery)


class PermissiveFifoChannel(PermissiveChannel):
    """The permissive FIFO channel ``C-hat`` (paper, Section 6.2).

    Identical to :class:`PermissiveChannel` but restricted to monotone
    delivery sets, which makes it a FIFO physical channel.  All
    surgeries validate monotonicity.
    """

    fifo_only = True

"""Refinement proofs: structural ``solves`` for concrete protocols.

The sampled harness checks behaviors; the refinement machinery of
:mod:`repro.ioa.refinement` proves inclusion structurally.  This module
instantiates it for the data link layer:

* :class:`ReliableLinkSpec` -- the one-queue specification automaton:
  ``send_msg`` appends, ``receive_msg`` pops the head.  Its behaviors
  are exactly the in-order, exactly-once delivery behaviors.
* :func:`verify_abp_refinement` -- proves (exhaustively, at bounds)
  that the alternating-bit protocol composed with *arbitrary* bounded
  nondeterministic lossy FIFO channels refines the specification, via
  the classical mapping: the abstract queue is the receiver inbox
  followed by the unacknowledged transmitter queue (dropping its head
  when the receiver has already accepted it -- the ``expected != bit``
  case).

The same check applied to the non-deduplicating strawman fails with a
concrete non-simulable step, which is the structural reading of its
duplicate deliveries.
"""

from __future__ import annotations

from typing import Callable, Iterable, Tuple

from ..alphabets import Message, MessageFactory
from ..ioa.actions import Action
from ..ioa.automaton import Automaton, State, with_memo
from ..ioa.composition import Composition
from ..ioa.refinement import RefinementResult, check_refinement
from ..ioa.signature import ActionSignature
from ..ioa.actions import action_family
from ..channels.nondet import NondetLossyFifoChannel
from ..datalink.actions import RECEIVE_MSG, SEND_MSG
from ..datalink.protocol import DataLinkProtocol
from .model_check import ScriptedEnvironment


class ReliableLinkSpec(Automaton):
    """The data link layer as a single reliable FIFO queue."""

    def __init__(self, t: str = "t", r: str = "r"):
        self.t = t
        self.r = r
        self._signature = ActionSignature.make(
            inputs=[action_family(SEND_MSG, t, r)],
            outputs=[action_family(RECEIVE_MSG, t, r)],
        )
        self.name = "reliable-link-spec"

    @property
    def signature(self) -> ActionSignature:
        return self._signature

    def initial_state(self) -> Tuple[Message, ...]:
        return ()

    def transitions(
        self, state: Tuple[Message, ...], action: Action
    ) -> Tuple[Tuple[Message, ...], ...]:
        if action.key == (SEND_MSG, (self.t, self.r)):
            return (state + (action.payload,),)
        if action.key == (RECEIVE_MSG, (self.t, self.r)):
            if state and state[0] == action.payload:
                return (state[1:],)
            return ()
        return ()

    def enabled_local_actions(
        self, state: Tuple[Message, ...]
    ) -> Iterable[Action]:
        if state:
            from ..datalink.actions import receive_msg

            yield receive_msg(self.t, self.r, state[0])


def _closed_system(
    protocol: DataLinkProtocol,
    messages: Tuple[Message, ...],
    capacity: int,
) -> Composition:
    """Protocol + bounded nondet channels + scripted environment."""
    t, r = "t", "r"
    transmitter, receiver = protocol.build(t, r, ghost_uids=False)
    # The refinement walk revisits component slices constantly; a memo
    # on each finite-state component makes those queries hits.
    components = [
        transmitter,
        receiver,
        NondetLossyFifoChannel(t, r, capacity=capacity),
        NondetLossyFifoChannel(r, t, capacity=capacity),
        ScriptedEnvironment(t, r, messages),
    ]
    return Composition(
        [with_memo(component) for component in components],
        name=f"refine({protocol.name})",
    )


def abp_mapping(state: State) -> Tuple[Message, ...]:
    """The classical ABP refinement mapping.

    The abstract queue is the receiver's undelivered inbox followed by
    the transmitter's unacknowledged queue; when the receiver has
    already accepted the queue head (its expected bit differs from the
    transmitter's current bit) that head is represented by the inbox
    copy and dropped from the queue part.
    """
    transmitter_core = state[0].core
    receiver_core = state[1].core
    queue = transmitter_core.queue
    head_accepted = (
        bool(queue)
        and receiver_core.expected != transmitter_core.bit
    )
    pending = queue[1:] if head_accepted else queue
    return tuple(receiver_core.inbox) + tuple(pending)


def eager_mapping(state: State) -> Tuple[Message, ...]:
    """The analogous (and doomed) mapping for the eager strawman."""
    transmitter_core = state[0].core
    receiver_core = state[1].core
    inbox = tuple(receiver_core.inbox)
    pending = tuple(
        m for m in transmitter_core.queue if m not in inbox
    )
    return inbox + pending


def verify_refinement(
    protocol: DataLinkProtocol,
    mapping: Callable[[State], Tuple[Message, ...]],
    messages: int = 2,
    capacity: int = 2,
    max_states: int = 200_000,
) -> RefinementResult:
    """Check a protocol's composition against :class:`ReliableLinkSpec`."""
    factory = MessageFactory(label="q")
    batch = factory.fresh_many(messages)
    implementation = _closed_system(protocol, batch, capacity)
    return check_refinement(
        implementation,
        ReliableLinkSpec(),
        mapping,
        max_states=max_states,
    )


def verify_abp_refinement(
    messages: int = 2, capacity: int = 2
) -> RefinementResult:
    """Prove ABP refines the reliable link at the given bounds."""
    from ..protocols import alternating_bit_protocol

    return verify_refinement(
        alternating_bit_protocol(), abp_mapping, messages, capacity
    )

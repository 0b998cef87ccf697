"""Message-independence (paper, Section 5.3.1), executably.

The paper defines message-independence through an equivalence relation
``==`` on messages, packets, states and actions: all messages are
equivalent, packets/states/actions are equivalent when related by a
message renaming, and the transition relation respects the equivalence
(conditions 4 and 5 of the definition).

Protocols written against the :class:`~repro.datalink.protocol`
interface treat messages as opaque tokens, so the equivalence is
*witnessed by renamings*: ``x == y`` iff ``rename(x, rho) == y`` for a
message renaming ``rho`` (with packet uids ignored).  This module
provides:

* :class:`Renaming` -- an extendable message renaming,
* equivalence checks for actions and host states,
* :func:`headers_of` -- the paper's ``headers(A, ==)`` as the set of
  (header, body-arity) classes,
* :func:`check_message_independence` -- an empirical validator: replay a
  random execution under a renaming and confirm the protocol evolves to
  equivalent states (conditions 4/5 on the sampled executions).  The
  impossibility engines additionally assert equivalence at every replay
  step, so a protocol sneaking message-dependent behavior past this
  checker would be caught during engine runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, Optional, Tuple

from ..alphabets import (
    Message,
    MessageFactory,
    Packet,
    messages_in,
    rename_messages,
    strip_uids,
)
from ..ioa.actions import Action
from .protocol import DataLinkProtocol, HostState


class Renaming:
    """A (growable) injective-by-construction message renaming.

    Maps messages of one execution to messages of a reference execution.
    Messages outside the mapping are fixed points.  The same reference
    message may be the image of several messages from *different* stages
    of a construction, which is sound because each stage tracks its own
    live names.
    """

    def __init__(self, mapping: Optional[Dict[Message, Message]] = None):
        self._mapping: Dict[Message, Message] = dict(mapping or {})

    def bind(self, source: Message, target: Message) -> None:
        """Add ``source -> target``; re-binding to a new target is an error."""
        existing = self._mapping.get(source)
        if existing is not None and existing != target:
            raise ValueError(
                f"renaming already maps {source} to {existing}, not {target}"
            )
        self._mapping[source] = target

    def apply(self, value: Any) -> Any:
        return rename_messages(value, self._mapping)

    def inverse(self) -> "Renaming":
        """The inverse mapping (valid when the renaming is injective)."""
        inverse: Dict[Message, Message] = {}
        for source, target in self._mapping.items():
            if target in inverse:
                raise ValueError(
                    f"renaming is not injective at {target}; cannot invert"
                )
            inverse[target] = source
        return Renaming(inverse)

    def __len__(self) -> int:
        return len(self._mapping)


def actions_equivalent(
    action: Action, reference: Action, renaming: Renaming
) -> bool:
    """``action == reference`` under ``renaming`` (uid-insensitive).

    Per the paper's condition 1, equivalent actions are identical except
    for their message/packet parameter; parameters must be related by
    the renaming (and, for packets, agree modulo uid).
    """
    if action.key != reference.key:
        return False
    return strip_uids(renaming.apply(action.payload)) == strip_uids(
        reference.payload
    )


def states_equivalent(
    state: HostState, reference: HostState, renaming: Renaming
) -> bool:
    """``state == reference`` under ``renaming``.

    The ghost uid counter is a proof device, not protocol state, so only
    the cores are compared.
    """
    return strip_uids(renaming.apply(state.core)) == strip_uids(
        reference.core
    )


#: Placeholder standing for "any message" in wildcard comparisons.
WILDCARD_MESSAGE = Message(-1, "*")


def wildcard_form(value: Any) -> Any:
    """Canonical form of a value under the full equivalence ``==``.

    Condition 2 of the paper's definition makes all messages pairwise
    equivalent, so two states/actions/packets are equivalent exactly
    when they agree after replacing every message with a fixed
    placeholder (and erasing ghost uids).  This is the equivalence the
    Section 8 construction needs, where the per-packet correspondence
    ``f`` is not a single functional renaming.

    Section 9 extension: messages of different *sizes* may be in
    different classes ("the length might determine the number of packets
    needed"), so the placeholder preserves the size -- two messages are
    equivalent iff they have the same size, which degenerates to full
    equivalence when every message uses the default size 0.
    """
    stripped = strip_uids(value)
    messages = set(messages_in(stripped))
    return rename_messages(
        stripped,
        {m: Message(-1, "*", m.size) for m in messages},
    )


def equivalent(value: Any, other: Any) -> bool:
    """``value == other`` in the paper's sense (messages as wildcards)."""
    return wildcard_form(value) == wildcard_form(other)


def packet_class(packet: Packet) -> Tuple[Any, int]:
    """The equivalence class of a packet: an element of ``headers(A, ==)``."""
    return (wildcard_form(packet.header), len(packet.body))


def headers_of(protocol: DataLinkProtocol) -> Optional[FrozenSet[Tuple[Any, int]]]:
    """``headers(A, ==)``: the packet equivalence classes the protocol uses.

    With opaque message bodies, a packet's class is its (header,
    body-arity) pair.  Body arity is conservatively taken from {0, 1}
    (all protocols in this repository send at most one message per
    packet); ``None`` means the header space is unbounded.
    """
    space = protocol.header_space()
    if space is None:
        return None
    return frozenset(
        (header, arity) for header in space for arity in (0, 1)
    )


@dataclass
class IndependenceReport:
    """Result of the empirical message-independence check."""

    independent: bool
    detail: str = ""


def check_message_independence(
    protocol: DataLinkProtocol,
    message_count: int = 6,
    max_steps: int = 20_000,
) -> IndependenceReport:
    """Empirically validate conditions 4/5 of Section 5.3.1.

    Runs the protocol over clean FIFO channels on ``message_count``
    messages, then re-runs it with every message renamed, and checks that
    the two executions are equivalent step by step: same behavior shape
    and equivalent final host states.  A message-dependent protocol
    (e.g. one that drops a designated message) diverges.
    """
    from ..sim.network import fifo_system  # local import to avoid a cycle

    factory = MessageFactory(label="a")
    first = fifo_system(protocol)
    messages = factory.fresh_many(message_count)
    inputs = [first.wake_t(), first.wake_r()] + [
        first.send(m) for m in messages
    ]
    run_a = first.run_fair(
        first.initial_state(), inputs=inputs, max_steps=max_steps
    )

    # The renamed run uses messages differing in both label and ident
    # (odd offset), so protocols branching on any facet of the content
    # diverge observably.
    renamed_factory = MessageFactory(label="b", start=1001)
    renamed_messages = renamed_factory.fresh_many(message_count)
    renaming = Renaming(
        dict(zip(renamed_messages, messages))
    )  # maps run-B names to run-A names
    second = fifo_system(protocol)
    renamed_inputs = [second.wake_t(), second.wake_r()] + [
        second.send(m) for m in renamed_messages
    ]
    run_b = second.run_fair(
        second.initial_state(), inputs=renamed_inputs, max_steps=max_steps
    )

    behavior_a = first.behavior(run_a)
    behavior_b = second.behavior(run_b)
    if len(behavior_a) != len(behavior_b):
        return IndependenceReport(
            False,
            f"renamed run produced {len(behavior_b)} external events, "
            f"original produced {len(behavior_a)}",
        )
    for index, (b_action, a_action) in enumerate(
        zip(behavior_b, behavior_a)
    ):
        if not actions_equivalent(b_action, a_action, renaming):
            return IndependenceReport(
                False,
                f"external event {index} differs: {b_action} vs {a_action}",
            )
    for station in ("t", "r"):
        state_a = first.host_state(run_a.final_state, station)
        state_b = second.host_state(run_b.final_state, station)
        if not states_equivalent(state_b, state_a, renaming):
            return IndependenceReport(
                False, f"final state at {station} not equivalent"
            )
    return IndependenceReport(True)

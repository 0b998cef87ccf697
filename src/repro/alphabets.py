"""The message and packet alphabets (paper, Sections 3-4).

The paper fixes an *infinite* alphabet ``M`` of messages and an alphabet
``P`` of packets.  Messages are uninterpreted data: message-independent
protocols (Section 5.3.1) may carry them but never branch on their
contents.  We realize ``M`` as an inexhaustible supply of opaque
:class:`Message` tokens; :class:`MessageFactory` hands out fresh ones,
which is exactly the capability the impossibility proofs require ("let
``m'`` be any message such that ``send_msg(m')`` does not occur in
...").

Packets are structured as ``(header, body)``:

* ``header`` -- the protocol-visible control information (sequence
  numbers, alternating bits, ...).  The paper's *headers* are the
  equivalence classes of packets under the message-independence relation;
  with opaque message bodies those classes are exactly the ``header``
  values (plus the body arity), so bounded headers = finite header space.
* ``body`` -- a tuple of messages carried opaquely (usually 0 or 1).
* ``uid`` -- a ghost label making every sent packet unique, realizing the
  paper's (PL2) convention that "the reader may think of each packet as
  labeled with a unique identifier ... included in the model for ease of
  analysis, but does not correspond to any bits sent on the transmission
  medium".  Protocols never branch on ``uid``; the packet-equivalence
  relation ignores it.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass
from typing import Any, Mapping, Optional, Tuple

from .hashing import cached_hash


@dataclass(frozen=True, order=True)
class Message:
    """An opaque message token from the infinite alphabet ``M``.

    ``size`` supports the paper's Section 9 extension: protocols may use
    *simple* content information such as the message length ("the length
    might determine the number of packets needed to contain the
    message").  Message-independence is then relative to the equivalence
    classing messages by size: a protocol may branch on ``size`` but on
    nothing else.  The default size 0 recovers the fully uniform
    alphabet of the main development.
    """

    ident: int
    label: str = "m"
    size: int = 0

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        suffix = f"/{self.size}" if self.size else ""
        return f"{self.label}{self.ident}{suffix}"


class MessageFactory:
    """An inexhaustible source of fresh messages.

    Each call to :meth:`fresh` returns a message never produced before by
    this factory.  Engines share a single factory so "fresh" means fresh
    across an entire constructed execution.  The Section 9 arguments need
    a fresh message *in a given size class*; pass ``size``.
    """

    def __init__(self, label: str = "m", start: int = 0):
        self._label = label
        self._counter = itertools.count(start)

    def fresh(self, size: int = 0) -> Message:
        return Message(next(self._counter), self._label, size)

    def fresh_many(self, count: int, size: int = 0) -> Tuple[Message, ...]:
        return tuple(self.fresh(size) for _ in range(count))


@cached_hash
@dataclass(frozen=True)
class Packet:
    """A packet ``p`` in the alphabet ``P``.

    ``header`` must be hashable; ``body`` is a tuple of :class:`Message`.
    ``uid`` is the ghost uniqueness label (see module docstring); two
    packets differing only in ``uid`` are *equivalent* in the paper's
    message-independence sense, and additionally carry the same bits on
    the wire if their bodies are equal.
    """

    header: Any
    body: Tuple[Message, ...] = ()
    uid: Optional[int] = None

    def with_uid(self, uid: int) -> "Packet":
        return Packet(self.header, self.body, uid)

    def strip_uid(self) -> "Packet":
        return Packet(self.header, self.body, None)

    @property
    def header_class(self) -> Tuple[Any, int]:
        """The packet's equivalence class under message-independence.

        Two packets are equivalent iff they have the same header and
        their bodies are related by a message renaming; since messages
        are opaque, the class is determined by (header, body arity).
        This is an element of the paper's ``headers(A, ==)``.
        """
        return (self.header, len(self.body))

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        body = ",".join(str(m) for m in self.body)
        uid = "" if self.uid is None else f"#{self.uid}"
        return f"pkt[{self.header!r}|{body}]{uid}"


def rename_messages(value: Any, mapping: Mapping[Message, Message]) -> Any:
    """Apply a message renaming to an arbitrary structured value.

    Walks tuples, frozensets, packets and dataclass-like values,
    replacing every :class:`Message` found via ``mapping`` (identity for
    messages not in the mapping).  This realizes the paper's equivalence
    ``==`` for message-independent protocols: two values are equivalent
    iff some renaming carries one to the other.

    Supported containers: ``Message``, :class:`Packet`, tuples, lists
    (returned as tuples), frozensets, dicts (keys and values), and frozen
    dataclasses composed of supported values, rebuilt from their init
    fields (the others derive from those).  Scalars pass through.
    """
    if isinstance(value, Message):
        return mapping.get(value, value)
    if isinstance(value, Packet):
        return Packet(
            rename_messages(value.header, mapping),
            tuple(rename_messages(m, mapping) for m in value.body),
            value.uid,
        )
    if isinstance(value, tuple):
        return tuple(rename_messages(v, mapping) for v in value)
    if isinstance(value, list):
        return tuple(rename_messages(v, mapping) for v in value)
    if isinstance(value, frozenset):
        return frozenset(rename_messages(v, mapping) for v in value)
    if isinstance(value, dict):
        return {
            rename_messages(k, mapping): rename_messages(v, mapping)
            for k, v in value.items()
        }
    if hasattr(value, "__dataclass_fields__"):
        return _rebuild(value, lambda field: rename_messages(field, mapping))
    return value


def _rebuild(value: Any, walk) -> Any:
    """The dataclass ``value`` with ``walk`` applied to each init field."""
    fields = dataclasses.fields(value)
    return dataclasses.replace(
        value, **{f.name: walk(getattr(value, f.name)) for f in fields if f.init}
    )


def strip_uids(value: Any) -> Any:
    """Erase packet uids throughout a structured value.

    The uid is the paper's ghost uniqueness label; the equivalence
    relation of Section 5.3.1 ignores it, so comparisons of states and
    actions under message renaming are performed on uid-stripped values.
    """
    if isinstance(value, Packet):
        return Packet(
            strip_uids(value.header),
            tuple(strip_uids(m) for m in value.body),
            None,
        )
    if isinstance(value, Message):
        return value
    if isinstance(value, tuple):
        return tuple(strip_uids(v) for v in value)
    if isinstance(value, list):
        return tuple(strip_uids(v) for v in value)
    if isinstance(value, frozenset):
        return frozenset(strip_uids(v) for v in value)
    if isinstance(value, dict):
        return {strip_uids(k): strip_uids(v) for k, v in value.items()}
    if hasattr(value, "__dataclass_fields__"):
        return _rebuild(value, strip_uids)
    return value


def messages_in(value: Any) -> Tuple[Message, ...]:
    """All messages occurring in a structured value, in traversal order."""
    found = []

    def walk(v: Any) -> None:
        if isinstance(v, Message):
            found.append(v)
        elif isinstance(v, Packet):
            walk(v.header)
            for m in v.body:
                walk(m)
        elif isinstance(v, (tuple, list, frozenset, set)):
            for item in v:
                walk(item)
        elif isinstance(v, dict):
            for k, val in v.items():
                walk(k)
                walk(val)
        elif hasattr(v, "__dataclass_fields__"):
            for f in dataclasses.fields(v):
                walk(getattr(v, f.name))

    walk(value)
    return tuple(found)

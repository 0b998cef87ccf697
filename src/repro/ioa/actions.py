"""Actions and events of the I/O automaton model (paper, Section 2.1).

The paper assumes a universal set of *actions*; an *event* is an occurrence
of an action in a sequence.  In this reproduction an action is a small
immutable value carrying:

* a ``name`` -- the action kind, e.g. ``"send_msg"`` or ``"wake"``;
* a ``direction`` -- the ordered endpoint pair the action is superscripted
  with in the paper, e.g. ``("t", "r")`` for ``send_msg^{t,r}(m)``.  Actions
  with no endpoint pair (used by tests and generic automata) use ``None``;
* a ``payload`` -- the message or packet parameter, or ``None`` for
  parameterless actions such as ``wake``/``fail``/``crash``.

Actions compare by value and are hashable, so they can live in sets,
signatures and schedules.  The hash is computed once per action and
kept (:func:`repro.hashing.cached_hash`): every slice table interns
the actions it meets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Tuple

from ..hashing import cached_hash

Direction = Optional[Tuple[str, str]]


@cached_hash
@dataclass(frozen=True)
class Action:
    """A single action of the universal action alphabet.

    Parameters
    ----------
    name:
        Kind of action (``"send_pkt"``, ``"wake"``...).
    direction:
        The ordered pair of endpoint names the action belongs to, or
        ``None`` for undirected actions.
    payload:
        Message/packet parameter.  Must be hashable.
    """

    name: str
    direction: Direction = None
    payload: Any = None

    def with_payload(self, payload: Any) -> "Action":
        """Return a copy of this action carrying ``payload``."""
        return Action(self.name, self.direction, payload)

    @property
    def key(self) -> Tuple[str, Direction]:
        """The (name, direction) pair identifying this action's family.

        Signatures classify actions by family: every payload variant of
        ``send_msg^{t,r}`` has the same classification.
        """
        return (self.name, self.direction)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        direction = (
            "" if self.direction is None else "^{%s,%s}" % self.direction
        )
        payload = "" if self.payload is None else "(%r)" % (self.payload,)
        return f"{self.name}{direction}{payload}"


def directed(name: str, src: str, dst: str, payload: Any = None) -> Action:
    """Convenience constructor for an action superscripted with ``(src, dst)``."""
    return Action(name, (src, dst), payload)


def action_family(name: str, src: str, dst: str) -> Tuple[str, Direction]:
    """The family key for all payload variants of a directed action."""
    return (name, (src, dst))

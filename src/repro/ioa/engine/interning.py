"""State and action interning for the exploration engine.

Composed states are tuples of component slices; during exhaustive
exploration the same slice values recur across thousands of composed
states (a step changes only the 1-2 slices that own its action).  The
engine therefore assigns every distinct slice value a small integer id
and works over *encoded* states -- tuples of ints -- whose hashing and
equality are an order of magnitude cheaper than re-hashing nested
dataclass states on every ``seen``-set probe.

The table also serves as the canonical-state store: the id -> value
list keeps exactly one object per distinct value, so decoded composed
tuples share their slice objects and equality checks between them hit
CPython's per-element identity fast path.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, List, Optional


class InternTable:
    """Assigns dense integer ids to hashable values, first-come order.

    ``intern`` is the only mutator; ``values[id]`` decodes.  Ids are
    dense (0, 1, 2, ...), so per-id side tables can be plain lists that
    callers extend whenever ``len(table)`` grows.
    """

    __slots__ = ("_ids", "values")

    def __init__(self) -> None:
        self._ids: Dict[Hashable, int] = {}
        self.values: List[Any] = []

    def intern(self, value: Hashable) -> int:
        """The id of ``value``, assigning a fresh one on first sight.

        One dict probe, so ``value`` is hashed once either way.
        """
        values = self.values
        ident = self._ids.setdefault(value, len(values))
        if ident == len(values):
            values.append(value)
        return ident

    def get(self, value: Hashable) -> Optional[int]:
        """The id of ``value`` or ``None`` if it was never interned.

        A pure probe: unlike :meth:`intern` it never assigns an id, so
        membership checks (the lazy state-set views use them) cannot
        grow the table as a side effect.
        """
        return self._ids.get(value)

    def __len__(self) -> int:
        return len(self.values)

    def __contains__(self, value: Hashable) -> bool:
        return value in self._ids

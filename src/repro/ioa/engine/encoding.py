"""Flat-encoded state representation for composed automata.

The exploration engine's hot loop must never touch nested dataclass
states: a composed state is encoded as a flat tuple of per-slot slice
ids (dense ints assigned by per-slot
:class:`.interning.SliceTable`\\ s) or, when every slot fits its bit
budget, packed into a *single* machine integer.  :class:`StateEncoder`
owns that mapping, which both backends of
:func:`repro.ioa.explorer.explore` share -- the pure-Python engine
(tuple codes) and the compiled core (packed codes).  The Python search
answers steps and enabled sets from the tables.  The compiled core
keeps them in its own memos and calls :meth:`StateEncoder.enabled_pairs`
and :meth:`StateEncoder.successor_sids` once per miss, which step and
intern through the tables but keep no answer.

What the encoding preserves (and what it does not): encoding is a
bijection between the composed states seen so far and their flat
codes -- ``decode(encode(s)) == s`` and equal states always receive
equal codes, so reachable-state sets, invariant verdicts and
counterexample traces are invariant under the representation.  It does
*not* preserve any ordering of states (ids are first-come dense) and it
is process-local: codes must never cross process boundaries or runs
(the same state can receive different ids in a different exploration
order).

Execution streams (the fuzz harness) need no encoding: their slice
values cache their own structural hashes (:mod:`repro.hashing`), so
:meth:`~repro.sim.runner.ScenarioResult.distinct_states` deduplicates
plain states directly.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from ..automaton import State
from ..composition import Composition
from .interning import InternTable, SliceTable

__all__ = [
    "EncodingOverflow",
    "StateEncoder",
]

#: Total bit budget of a packed state.  64 keeps the key a single
#: machine word in the compiled backend's tables.
PACK_BITS = 64


class EncodingOverflow(RuntimeError):
    """A slot outgrew its packed bit budget.

    Raised by :meth:`StateEncoder.pack` when some slice table holds
    more distinct values than the slot's bit width can address (and by
    the compiled core for a composition with more slots than bits).  The
    tuple encoding is unaffected (it has no width limit); callers on
    the packed fast path catch this and fall back to the pure-Python
    engine.
    """


class StateEncoder:
    """Encoder between composed states and flat int codes.

    One encoder per exploration: it owns one fresh
    :class:`SliceTable` per slot and the action-token table the slot
    tables share, so any number of backends can share the same ids.

    Flat forms:

    * ``encode(state)`` -> tuple of per-slot slice ids (unbounded);
    * ``pack(encoded)`` -> one int, ``bits_per_slot`` bits per slot
      (raises :class:`EncodingOverflow` past the budget).
    """

    def __init__(self, composition: Composition, pack_bits: int = PACK_BITS):
        self.n = len(composition.components)
        self.family_owners = composition.family_owners
        # Action tokens: one dense id space across the slot tables.
        self.actions = InternTable()
        self.slice_tables: List[SliceTable] = [
            SliceTable(component, self.actions)
            for component in composition.components
        ]
        self.owners_of_token: List[Tuple[int, ...]] = []
        # Packed form: an equal split of the bit budget across slots.
        self.bits_per_slot = max(1, pack_bits // max(1, self.n))
        self.shifts: Tuple[int, ...] = tuple(
            slot * self.bits_per_slot for slot in range(self.n)
        )
        self.slot_capacity = 1 << self.bits_per_slot

    # -- action interning -----------------------------------------------

    def owners(self) -> List[Tuple[int, ...]]:
        """``owners_of_token`` (each action's owner slots), grown to date."""
        owners, actions = self.owners_of_token, self.actions.values
        if len(owners) < len(actions):
            for action in actions[len(owners) :]:
                owners.append(tuple(self.family_owners.get(action.key, ())))
        return owners

    # -- encoding -------------------------------------------------------

    def encode(self, state: State) -> Tuple[int, ...]:
        """The flat tuple code of a composed state."""
        return tuple(
            table.intern(slice_state)
            for table, slice_state in zip(self.slice_tables, state)
        )

    def decode(self, encoded: Sequence[int]) -> State:
        """The composed state behind a flat tuple code.

        Decoded tuples share their slice objects with the intern
        tables, so equality checks between decoded states hit
        CPython's per-element identity fast path.
        """
        return tuple(
            table.values[sid]
            for table, sid in zip(self.slice_tables, encoded)
        )

    def pack(self, encoded: Sequence[int]) -> int:
        """The single-int code of a flat tuple (packed mixed-radix).

        Raises :class:`EncodingOverflow` when any slice id exceeds its
        slot's bit budget -- the signal for packed-path callers to fall
        back to the tuple representation.
        """
        key = 0
        capacity = self.slot_capacity
        for shift, sid in zip(self.shifts, encoded):
            if sid >= capacity:
                raise EncodingOverflow(
                    f"slice id {sid} does not fit the "
                    f"{self.bits_per_slot}-bit slot budget "
                    f"({self.n} slots in {self.bits_per_slot * self.n} bits)"
                )
            key |= sid << shift
        return key

    def unpack(self, key: int) -> Tuple[int, ...]:
        """The flat tuple behind a packed single-int code."""
        mask = self.slot_capacity - 1
        return tuple((key >> shift) & mask for shift in self.shifts)

    def encode_packed(self, state: State) -> int:
        """``pack(encode(state))``."""
        return self.pack(self.encode(state))

    def decode_packed(self, key: int) -> State:
        """``decode(unpack(key))``."""
        mask = self.slot_capacity - 1
        tables = self.slice_tables
        return tuple(
            tables[slot].values[(key >> shift) & mask]
            for slot, shift in enumerate(self.shifts)
        )

    # -- the compiled core's miss callbacks -----------------------------

    def enabled_pairs(
        self, slot: int, sid: int
    ) -> Tuple[Tuple[int, Tuple[int, ...]], ...]:
        """``(token, owners)`` pairs of the slice's enabled local actions.

        Asked afresh: the compiled core keeps the answer.
        """
        table = self.slice_tables[slot]
        enabled = table.automaton.enabled_local_actions(table.values[sid])
        tokens = tuple(map(self.actions.intern, enabled))
        return tuple(zip(tokens, map(self.owners().__getitem__, tokens)))

    def successor_sids(
        self, slot: int, sid: int, token: int
    ) -> Tuple[int, ...]:
        """Successor slice ids of ``(slot, sid)`` under action ``token``.

        Stepped and interned afresh: the compiled core keeps the answer.
        """
        return self.slice_tables[slot].step(sid, self.actions.values[token])

    # -- statistics -----------------------------------------------------

    def slices_interned(self) -> int:
        """Total distinct slice values across all slots."""
        return sum(len(table) for table in self.slice_tables)

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

:class:`SliceTable` is the one place per-slice answers live: the
encoder holds one per slot, and a campaign's stations carry one each,
which also name their slices' task groups for the fair kernel.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, List, Optional, Tuple

from ..actions import Action
from ..automaton import Automaton, TaskGroup, TaskNames

#: A slice as a fair kernel's slot holds it, with the slot's task groups.
SlotEntry = Tuple[Any, Tuple[TaskGroup, ...]]


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


class SliceTable(InternTable):
    """One automaton's slices, interned, with its answers about each.

    Actions get ids from ``actions`` (shared by tables that must agree
    on them).  Per slice id ``sid``, filled on first use: ``enabled[sid]``
    holds the enabled local actions' ids and ``steps[sid][action id]``
    the post-slices' ids.  The answers hold as long as the table lives,
    as automata are pure functions of immutable states.

    A table may answer for a ghost-labelled automaton, ``labels``, from
    its ghost-free twin ``automaton`` (:func:`~repro.ioa.automaton.
    with_memo`): the keys and answers are the twin's, a slice of
    ``labels`` is a key id and a counter (:meth:`split`), and actions
    map to the twin's by :meth:`unlabel` and back by :meth:`label`.
    For the fair kernel, ``slot_cache(slot)`` maps ``(sid, counter)`` to
    that slice and its task groups as a composition with the automaton
    in that slot names them (:meth:`slot_entry`).  Stamped actions and
    slices come from these int-keyed caches, so equal ones stay one
    object.
    """

    def __init__(
        self,
        automaton: Automaton,
        actions: Optional[InternTable] = None,
        labels: Optional[Automaton] = None,
    ):
        super().__init__()
        self.automaton = automaton
        self.labels = automaton if labels is None else labels
        self.actions = InternTable() if actions is None else actions
        self.enabled: List[Optional[Tuple[int, ...]]] = []
        self.steps: List[Dict[int, Tuple[int, ...]]] = []
        self.free: Dict[Action, Tuple[int, Optional[int]]] = {}
        self._labelled: Dict[Tuple[int, int], Action] = {}
        self._slots: Dict[int, Dict[Tuple[int, int], SlotEntry]] = {}
        self._task_names = TaskNames()

    def intern(self, value: Hashable) -> int:
        """The id of ``value``; a fresh id gets empty answer slots."""
        sid = self._ids.get(value)
        if sid is None:
            sid = self._ids[value] = len(self.values)
            self.values.append(value)
            self.enabled.append(None)
            self.steps.append({})
        return sid

    def enabled_ids(self, sid: int) -> Tuple[int, ...]:
        ids = self.enabled[sid]
        if ids is None:
            actions = self.automaton.enabled_local_actions(self.values[sid])
            ids = self.enabled[sid] = tuple(map(self.actions.intern, actions))
        return ids

    def split(self, piece: Any) -> Tuple[int, int]:
        """``(sid, counter)`` of a slice of ``labels``."""
        key, counter = self.labels.split(piece)
        return self.intern(key), counter

    def unlabel(self, action: Action) -> Tuple[int, Optional[int]]:
        """``(action id, uid)``: the twin's action for ``action`` and the
        label it carries, kept in ``free``."""
        entry = self.free.get(action)
        if entry is None:
            twin, uid = self.labels.unlabel(action)
            entry = self.free[action] = (self.actions.intern(twin), uid)
        return entry

    def label(self, aid: int, uid: int) -> Action:
        """The action ``labels`` enables for action id ``aid`` when its
        next label is ``uid``."""
        action = self._labelled.get((aid, uid))
        if action is None:
            action = self._labelled[aid, uid] = self.labels.label(
                self.actions.values[aid], uid
            )
        return action

    def slot_cache(self, slot: int) -> Dict[Tuple[int, int], SlotEntry]:
        """``(sid, counter)`` -> :meth:`slot_entry`, as far as computed."""
        return self._slots.setdefault(slot, {})

    def slot_entry(self, slot: int, sid: int, counter: int) -> SlotEntry:
        """The slice ``(sid, counter)`` stands for and its enabled
        actions, grouped by the task a composition with the automaton
        in ``slot`` gives them, ``(slot, automaton.task_of(action))``,
        each named by its ``repr``.

        Kept in :meth:`slot_cache`, so compositions placing the
        automaton in the same slot share the groups.  The slot leads
        each name, so names from different slots never clash.
        """
        task_of, names = self.automaton.task_of, self._task_names
        by_task: Dict[str, List[Action]] = {}
        for aid in self.enabled_ids(sid):
            action = self.label(aid, counter + 1)
            by_task.setdefault(names[slot, task_of(action)], []).append(action)
        entry = self.slot_cache(slot)[sid, counter] = (
            self.labels.join(self.values[sid], counter),
            tuple((name, tuple(actions)) for name, actions in by_task.items()),
        )
        return entry

    def step(self, sid: int, action: Action) -> Tuple[int, ...]:
        """Post-slice ids under ``action``, computed afresh, not kept."""
        # The compiled core's miss path: probe before calling intern.
        ids, fresh = self._ids, []
        for post in self.automaton.transitions(self.values[sid], action):
            post_sid = ids.get(post)
            fresh.append(self.intern(post) if post_sid is None else post_sid)
        return tuple(fresh)

    def successors(self, sid: int, aid: int) -> Tuple[int, ...]:
        """:meth:`step` under action id ``aid``, kept in ``steps``."""
        steps = self.steps[sid]
        ids = steps.get(aid)
        if ids is None:
            ids = steps[aid] = self.step(sid, self.actions.values[aid])
        return ids

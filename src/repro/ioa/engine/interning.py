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
encoder holds one per slot, and a campaign's stations carry one each.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, List, Optional, Tuple

from ..actions import Action
from ..automaton import Automaton

#: Enabled actions by their automaton's own task, in enumeration order.
ByTask = Tuple[Tuple[Hashable, Tuple[Action, ...]], ...]


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
    holds the enabled local actions' ids, ``groups[sid]`` those actions
    grouped by the automaton's own ``task_of``, and ``steps[sid][action
    id]`` the post-slices' ids.  The answers hold as long as the table
    lives, as automata are pure functions of immutable states.  A table
    knows neither its slot nor any composition's task ids.
    """

    def __init__(self, automaton: Automaton, actions: Optional[InternTable] = None):
        super().__init__()
        self.automaton = automaton
        self.actions = InternTable() if actions is None else actions
        self.enabled: List[Optional[Tuple[int, ...]]] = []
        self.groups: Dict[int, ByTask] = {}
        self.steps: List[Dict[int, Tuple[int, ...]]] = []

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

    def enabled_actions(self, sid: int) -> Tuple[Action, ...]:
        return tuple(map(self.actions.values.__getitem__, self.enabled_ids(sid)))

    def task_groups(self, sid: int) -> ByTask:
        groups = self.groups.get(sid)
        if groups is None:
            by_task: Dict[Hashable, List[Action]] = {}
            for action in self.enabled_actions(sid):
                by_task.setdefault(self.automaton.task_of(action), []).append(action)
            groups = self.groups[sid] = tuple(
                (task, tuple(actions)) for task, actions in by_task.items()
            )
        return groups

    def successors_of(self, value: Hashable, action: Action) -> Tuple[int, ...]:
        """:meth:`successors` of a slice value under an action."""
        sid = self._ids.get(value)
        aid = self.actions._ids.get(action)
        if sid is None or aid is None:
            return self.successors(self.intern(value), self.actions.intern(action))
        return self.steps[sid].get(aid) or self.successors(sid, aid)

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

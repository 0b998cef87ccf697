"""Composition of I/O automata (paper, Section 2.5.2).

The composition of a strongly compatible collection of automata is itself
an automaton whose state is the vector of component states.  A step on
action ``pi`` makes every component with ``pi`` in its signature take a
``pi``-step simultaneously while all other components stay put.

This module also provides the projection operation of Lemma 2.2 (an
execution of the composition projects to an execution of each component).
"""

from __future__ import annotations

import itertools
import weakref
from typing import Dict, Hashable, Iterable, List, Sequence, Tuple

from .actions import Action
from .automaton import REFUSED, Automaton, SliceView, State
from .execution import ExecutionFragment
from .signature import (
    ActionSignature,
    SignatureError,
    compatibility_conflicts,
    union_signature,
)


class Composition(Automaton):
    """The composition ``A = prod_i A_i`` of strongly compatible automata.

    The composed state is a tuple with one slot per component, in the
    order the components were given.  The composition keeps no answers
    of its own: a component that carries a
    :class:`~repro.ioa.engine.interning.SliceTable` has its steps and
    enabled sets answered from it, and every other component is asked
    afresh.  Only the fair kernel's view remembers the slices its last
    run or step left.
    """

    def __init__(
        self,
        components: Sequence[Automaton],
        name: str = "composition",
    ):
        components = list(components)
        signatures = [c.signature for c in components]
        conflicts = compatibility_conflicts(
            signatures, names=[repr(c.name) for c in components]
        )
        if conflicts:
            raise SignatureError(
                "component automata are not strongly compatible: "
                + "; ".join(
                    f"{family!r} is {role}" for family, role in conflicts
                ),
                kind="compatibility",
                conflicts=conflicts,
            )
        self.name = name
        self._components: Tuple[Automaton, ...] = tuple(components)
        self._signature = union_signature(signatures)
        # Pre-compute, per component, which action families it knows.
        self._family_owners: Dict[Tuple, List[int]] = {}
        for i, component in enumerate(self._components):
            for family in component.signature.all_families:
                self._family_owners.setdefault(family, []).append(i)
        # Family -> owning-component index for locally-controlled actions.
        # Strong compatibility makes the owner unique (outputs belong to
        # one signature; internals are private), so task_of is a dict hit
        # instead of a linear signature scan.
        self._local_owner: Dict[Tuple, int] = {}
        for i, component in enumerate(self._components):
            for family in component.signature.local:
                self._local_owner[family] = i
        # The fair kernel's view, kept with what it knows of the
        # component slices for every run.  Its back-reference is weak:
        # a strong one is a cycle, which would keep a dropped
        # composition's last states alive until the cycle collector runs.
        self._slice_view = ComponentSlices(weakref.proxy(self))

    # ------------------------------------------------------------------
    # Component access
    # ------------------------------------------------------------------

    @property
    def components(self) -> Tuple[Automaton, ...]:
        return self._components

    @property
    def family_owners(self) -> Dict[Tuple, List[int]]:
        """Action family key -> indices of components with that family.

        Exposed for the exploration engine, which drives the component
        cross-product itself over interned states.
        """
        return self._family_owners

    def component_index(self, name: str) -> int:
        """Index of the (unique) component with the given name."""
        found = [
            i for i, c in enumerate(self._components) if c.name == name
        ]
        if len(found) != 1:
            raise KeyError(
                f"expected exactly one component named {name!r}, "
                f"found {len(found)}"
            )
        return found[0]

    def component_state(self, state: State, name: str) -> State:
        """The slice of the composed ``state`` belonging to component ``name``."""
        return state[self.component_index(name)]

    def with_component_state(
        self, state: State, name: str, new_component_state: State
    ) -> State:
        """Composed state with one component's slice replaced.

        A by-name lookup for callers holding only a composition; the
        impossibility engines' adversary surgeries (paper Lemmas 6.3
        and 6.5-6.7) go through
        :meth:`~repro.sim.network.DataLinkSystem.with_channel_state`.
        """
        index = self.component_index(name)
        return state[:index] + (new_component_state,) + state[index + 1 :]

    # ------------------------------------------------------------------
    # Automaton interface
    # ------------------------------------------------------------------

    @property
    def signature(self) -> ActionSignature:
        return self._signature

    def initial_state(self) -> State:
        return tuple(c.initial_state() for c in self._components)

    def transitions(self, state: State, action: Action) -> Tuple[State, ...]:
        owners = self._family_owners.get(action.key)
        if not owners:
            return ()
        # Every owning component must be able to take the step; one
        # with a table answers from it, as the same (slice, action)
        # pairs recur across an exhaustive walk's states and a
        # campaign's runs.
        per_component_choices: List[Tuple[State, ...]] = []
        for i in owners:
            component = self._components[i]
            table = component.table
            if table is None:
                choices = component.transitions(state[i], action)
            else:
                sid, counter = table.split(state[i])
                aid, uid = table.unlabel(action)
                if uid is not None and uid != counter + 1:
                    return ()
                counter = uid or counter
                choices = tuple(
                    table.labels.join(table.values[post], counter)
                    for post in table.successors(sid, aid)
                )
            if not choices:
                return ()
            per_component_choices.append(choices)
        results: List[State] = []
        for combo in itertools.product(*per_component_choices):
            new_state = list(state)
            for slot, i in enumerate(owners):
                new_state[i] = combo[slot]
            results.append(tuple(new_state))
        return tuple(results)

    def enabled_local_actions(self, state: State) -> Iterable[Action]:
        # An action locally controlled by one component may be an input
        # of others; it is enabled in the composition since inputs are
        # always enabled.  Components without a table stay lazy: callers
        # like is_quiescent stop at the first action.
        for i, component in enumerate(self._components):
            table = component.table
            if table is None:
                yield from component.enabled_local_actions(state[i])
            else:
                sid, counter = table.split(state[i])
                for aid in table.enabled_ids(sid):
                    yield table.label(aid, counter + 1)

    def slice_view(self) -> SliceView:
        return self._slice_view

    def task_of(self, action: Action) -> Hashable:
        # The fair kernel calls this per enumerated action: spell the
        # family key out rather than build it through Action.key.
        owner = self._local_owner.get((action.name, action.direction))
        if owner is None:
            raise KeyError(
                f"{action} is not locally controlled by any component"
            )
        return (owner, self._components[owner].task_of(action))

    def tasks(self) -> Iterable[Hashable]:
        for i, component in enumerate(self._components):
            for task in component.tasks():
                yield (i, task)

    # ------------------------------------------------------------------
    # Lemma 2.2: projection
    # ------------------------------------------------------------------

    def project_execution(
        self, fragment: ExecutionFragment, index: int
    ) -> ExecutionFragment:
        """``alpha | A_i``: project a composed execution onto component ``index``.

        Deletes steps whose action is not in the component's signature and
        keeps the component's slice of each remaining state (Lemma 2.2
        guarantees the result is an execution fragment of the component).
        """
        component = self._components[index]
        states: List[State] = [fragment.states[0][index]]
        actions: List[Action] = []
        for i, action in enumerate(fragment.actions):
            if component.signature.contains(action):
                actions.append(action)
                states.append(fragment.states[i + 1][index])
        return ExecutionFragment(states, actions)

    def project_schedule(
        self, schedule: Iterable[Action], index: int
    ) -> Tuple[Action, ...]:
        """``beta | A_i`` on schedules."""
        signature = self._components[index].signature
        return tuple(a for a in schedule if signature.contains(a))


class ComponentSlices(SliceView):
    """The fair kernel's view of a composition: one slice per component.

    A step on ``pi`` moves only the slices of the components with ``pi``
    in their signature, so the other slices keep their task groups.  The
    view lives as long as the composition, so consecutive runs from
    states sharing slices (a Session's bursts, and every run of a fuzz
    campaign or load run, which share one composition) reuse them too.

    A component with a slice table steps by id: its slot keeps the
    table's key id and the ghost counter beside it (``sids[i]``,
    ``counters[i]``, set by :meth:`start`), so a step reads
    ``table.steps[sid][action id]`` under the action's uid-free id
    (:meth:`~repro.ioa.engine.interning.SliceTable.unlabel`), moves the
    counter to the label of the slot's own send, which must be
    ``counter + 1``, and takes the post-slice and its task groups, each
    send stamped with the next label, from the table's cache for the
    slot, hashing no slice.  Other components step through their own
    ``transitions`` and are re-enumerated when their slice changes.
    :meth:`Automaton.step` on the composition, or on a hiding of it, is
    :meth:`step`: it starts this view at its state and advances it, so
    every scripted step (a Session's inputs, Lemma 2.1's, a replayed
    schedule's, the impossibility engines') leaves the view describing
    its post-state.
    """

    def __init__(self, composition: Composition):
        super().__init__(composition, len(composition.components))
        self.sids: List[int] = [-1] * len(composition.components)
        self.counters: List[int] = [0] * len(composition.components)
        self.components = composition.components
        self.owners = composition.family_owners
        self.tables = [component.table for component in self.components]
        self.caches = [
            None if table is None else table.slot_cache(index)
            for index, table in enumerate(self.tables)
        ]

    def start(self, state: State) -> None:
        kept = self.kept
        for i, piece in enumerate(state):
            if piece is kept[i]:
                continue
            table = self.tables[i]
            if table is None:
                self.groups[i] = self._group(
                    self.components[i].enabled_local_actions(piece),
                    self.automaton.task_of,
                )
            else:
                key = table.split(piece)
                self.sids[i], self.counters[i] = key
                entry = self.caches[i].get(key) or table.slot_entry(i, *key)
                self.groups[i] = entry[1]
            kept[i] = piece

    def step(self, state: State, action: Action) -> State:
        self.start(state)
        return self.advance(state, action)

    def advance(self, state: State, action: Action) -> State:
        # Only the owners step, each taking its first choice: the first
        # combination Composition.transitions would produce.
        owners = self.owners.get((action.name, action.direction))
        if not owners:
            return REFUSED
        kept, groups, sids, counters = self.kept, self.groups, self.sids, self.counters
        post = list(state)
        for i in owners:
            table = self.tables[i]
            if table is None:
                component = self.components[i]
                choices = component.transitions(state[i], action)
                if not choices:
                    return REFUSED
                piece = choices[0]
                if piece is not kept[i]:
                    groups[i] = self._group(
                        component.enabled_local_actions(piece),
                        self.automaton.task_of,
                    )
                    post[i] = kept[i] = piece
                continue
            aid, uid = table.free.get(action) or table.unlabel(action)
            sid = sids[i]
            if uid is not None and uid != counters[i] + 1:
                return REFUSED
            ids = table.steps[sid].get(aid)
            if ids is None:
                ids = table.successors(sid, aid)
            if not ids:
                return REFUSED
            if ids[0] != sid or uid is not None:
                sid = sids[i] = ids[0]
                if uid is not None:
                    counters[i] = uid
                key = (sid, counters[i])
                entry = self.caches[i].get(key) or table.slot_entry(i, *key)
                post[i] = kept[i] = entry[0]
                groups[i] = entry[1]
        return tuple(post)

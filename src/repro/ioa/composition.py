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
from typing import Dict, Hashable, Iterable, List, Sequence, Tuple

from .actions import Action
from .automaton import Automaton, SliceMemory, SliceView, State, TaskGroup
from .execution import ExecutionFragment
from .signature import (
    ActionSignature,
    SignatureError,
    compatibility_conflicts,
    compose_signatures,
)


class Composition(Automaton):
    """The composition ``A = prod_i A_i`` of strongly compatible automata.

    The composed state is a tuple with one slot per component, in the
    order the components were given.  The composition keeps no answers
    of its own: a component that carries a
    :class:`~repro.ioa.engine.interning.SliceTable` has its steps and
    enabled sets answered from it, and every other component is asked
    afresh.
    """

    #: sentinel marking a component name shared by several components
    _AMBIGUOUS = -1

    def __init__(
        self,
        components: Sequence[Automaton],
        name: str = "composition",
    ):
        components = list(components)
        conflicts = compatibility_conflicts(
            [c.signature for c in components],
            names=[repr(c.name) for c in components],
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
        self._signature = compose_signatures(
            c.signature for c in components
        )
        # Pre-compute, per component, which action families it knows.
        self._family_owners: Dict[Tuple, List[int]] = {}
        for i, component in enumerate(self._components):
            for family in component.signature.all_families:
                self._family_owners.setdefault(family, []).append(i)
        # Name -> index lookup table (with_component_state is hit inside
        # the impossibility engines' surgery loops, so the per-call linear
        # scan became measurable).  Duplicated names map to _AMBIGUOUS so
        # lookups still fail loudly.
        self._index_by_name: Dict[str, int] = {}
        for i, component in enumerate(self._components):
            if component.name in self._index_by_name:
                self._index_by_name[component.name] = self._AMBIGUOUS
            else:
                self._index_by_name[component.name] = i
        # Family -> owning-component index for locally-controlled actions.
        # Strong compatibility makes the owner unique (outputs belong to
        # one signature; internals are private), so task_of is a dict hit
        # instead of a linear signature scan.
        self._local_owner: Dict[Tuple, int] = {}
        for i, component in enumerate(self._components):
            for family in component.signature.local:
                self._local_owner[family] = i
        # What the fair kernel keeps of the component slices between
        # runs; the view holding it is built per run, so no reference
        # cycle keeps a dropped composition's last states alive.
        self._slice_memory = SliceMemory(len(self._components))

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
        index = self._index_by_name.get(name)
        if index is None or index == self._AMBIGUOUS:
            found = sum(1 for c in self._components if c.name == name)
            raise KeyError(
                f"expected exactly one component named {name!r}, "
                f"found {found}"
            )
        return index

    def component_state(self, state: State, name: str) -> State:
        """The slice of the composed ``state`` belonging to component ``name``."""
        return state[self.component_index(name)]

    def with_component_state(
        self, state: State, name: str, new_component_state: State
    ) -> State:
        """Composed state with one component's slice replaced.

        This is the hook the impossibility engines use for adversary
        surgery on channel states (paper Lemmas 6.3 and 6.5-6.7): the
        surgery functions justify that the replacement state is reachable
        under the same schedule via a different start-state choice.
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

    def component_transitions(
        self, index: int, component_state: State, action: Action
    ) -> Tuple[State, ...]:
        """``components[index].transitions(component_state, action)``,
        from the component's table if it carries one.

        Most steps change only one or two slices, so an exhaustive walk
        asks the same (slice, action) pair across thousands of composed
        states, and a campaign's stations meet the same slices run
        after run.
        """
        component = self._components[index]
        table = component.table
        if table is None:
            return component.transitions(component_state, action)
        ids = table.successors_of(component_state, action)
        return tuple(map(table.values.__getitem__, ids))

    def transitions(self, state: State, action: Action) -> Tuple[State, ...]:
        owners = self._family_owners.get(action.key)
        if not owners:
            return ()
        # Every owning component must be able to take the step.
        per_component_choices: List[Tuple[State, ...]] = []
        for i in owners:
            choices = self.component_transitions(i, state[i], action)
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
                yield from table.enabled_actions(table.intern(state[i]))

    def slice_view(self) -> SliceView:
        return ComponentSlices(self, self._slice_memory)

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
        return ExecutionFragment(tuple(states), tuple(actions))

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
    memory lives as long as the composition, so consecutive runs from
    states sharing slices (a Session's bursts) reuse them too.  A
    component's table groups each of its slices once, for every run.
    """

    def slices(self, state: State) -> Sequence[State]:
        return state

    def enumerate(self, index: int, piece: State) -> Tuple[TaskGroup, ...]:
        composition: Composition = self.automaton
        component = composition._components[index]
        table = component.table
        if table is None:
            return self._group(
                component.enabled_local_actions(piece), composition.task_of
            )
        # The composition's task is (owner, the owner's own task).
        task_id = self.memory.task_id
        groups = table.task_groups(table.intern(piece))
        if len(groups) == 1:
            return ((task_id((index, groups[0][0])), groups[0][1]),)
        return tuple(
            (task_id((index, task)), candidates) for task, candidates in groups
        )

    def step(self, state: State, action: Action) -> Tuple[State, ...]:
        # Only the owners step, each taking its first choice: the first
        # combination Composition.transitions would produce.
        composition: Composition = self.automaton
        owners = composition.family_owners.get((action.name, action.direction))
        if not owners:
            return ()
        post = list(state)
        for i in owners:
            component = composition._components[i]
            table = component.table
            if table is None:
                choices = component.transitions(state[i], action)
            else:
                # The table answers with ids: read only the first choice.
                ids = table.successors_of(state[i], action)
                choices = (table.values[ids[0]],) if ids else ()
            if not choices:
                return ()
            post[i] = choices[0]
        return (tuple(post),)

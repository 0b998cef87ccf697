"""Patching component executions into composed executions (Lemmas 2.3/2.4).

Lemma 2.3: given executions ``alpha_i`` of strongly compatible
components and an external-action sequence ``beta`` with
``beta | A_i = beh(alpha_i)`` for every ``i``, there is an execution of
the composition with behavior ``beta`` projecting onto each
``alpha_i``.  The constructive content: walk ``beta`` in order; before
firing each external action, flush the internal actions each involved
component performs before its next external action (internal actions of
distinct components are independent, so any flushing order works); at
the end flush all remaining internal steps.

:func:`patch_executions` implements exactly that, validating the
hypotheses as it goes.  :func:`patch_schedules` is the schedule-level
Lemma 2.4 analogue.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from .actions import Action
from .composition import Composition
from .execution import ExecutionFragment


class PatchError(ValueError):
    """The given pieces do not satisfy the lemma's hypotheses."""


def _flush_internal(
    composition: Composition,
    fragments: Sequence[ExecutionFragment],
    cursors: List[int],
    index: int,
    composed: ExecutionFragment,
) -> None:
    """Advance component ``index`` through its internal steps, extending
    ``composed``."""
    component = composition.components[index]
    fragment = fragments[index]
    while cursors[index] < len(fragment.actions):
        action = fragment.actions[cursors[index]]
        if component.signature.is_external(action):
            break
        state = composed.final_state
        new_component_state = fragment.states[cursors[index] + 1]
        expected = fragment.states[cursors[index]]
        if state[index] != expected:
            raise PatchError(
                f"component {component.name} diverged: composed state "
                f"holds {state[index]!r}, its execution expects "
                f"{expected!r}"
            )
        new_state = state[:index] + (new_component_state,) + state[index + 1 :]
        composed.step(action, new_state)
        cursors[index] += 1


def patch_executions(
    composition: Composition,
    fragments: Sequence[ExecutionFragment],
    behavior: Sequence[Action],
) -> ExecutionFragment:
    """Lemma 2.3: assemble a composed execution from component pieces.

    ``fragments[i]`` must be an execution fragment of component ``i``
    and ``behavior`` a sequence of external actions of the composition
    whose projection onto each component equals that component's
    external actions in its fragment.  Returns a composed execution
    fragment with the given behavior whose projections are exactly the
    given fragments.
    """
    components = composition.components
    if len(fragments) != len(components):
        raise PatchError(
            f"need one fragment per component: got {len(fragments)} "
            f"for {len(components)}"
        )
    for action in behavior:
        if not composition.signature.is_external(action):
            raise PatchError(
                f"{action} is not external to the composition"
            )
    for index, (component, fragment) in enumerate(
        zip(components, fragments)
    ):
        expected = tuple(
            a
            for a in fragment.actions
            if component.signature.is_external(a)
        )
        projected = tuple(
            a for a in behavior if component.signature.contains(a)
        )
        if expected != projected:
            raise PatchError(
                f"behavior projection onto {component.name} does not "
                "match its execution's behavior"
            )

    cursors = [0] * len(components)
    composed = ExecutionFragment.initial(
        tuple(fragment.first_state for fragment in fragments)
    )
    for action in behavior:
        if not composition.signature.is_external(action):
            raise PatchError(f"{action} is not external to the composition")
        involved = [
            index
            for index, component in enumerate(components)
            if component.signature.contains(action)
        ]
        # Flush internal prefixes of every involved component so each
        # is poised at this external action.
        for index in involved:
            _flush_internal(composition, fragments, cursors, index, composed)
            fragment = fragments[index]
            if (
                cursors[index] >= len(fragment.actions)
                or fragment.actions[cursors[index]] != action
            ):
                raise PatchError(
                    f"component {components[index].name} is not poised "
                    f"at {action}"
                )
        state = composed.final_state
        new_state = list(state)
        for index in involved:
            new_state[index] = fragments[index].states[cursors[index] + 1]
            cursors[index] += 1
        composed.step(action, tuple(new_state))
    # Flush trailing internal steps.
    for index in range(len(components)):
        _flush_internal(composition, fragments, cursors, index, composed)
        if cursors[index] != len(fragments[index].actions):
            raise PatchError(
                f"component {components[index].name} has unconsumed "
                "external actions beyond the given behavior"
            )
    return composed


def patch_schedules(
    composition: Composition,
    schedules: Sequence[Sequence[Action]],
    behavior: Sequence[Action],
) -> Tuple[Action, ...]:
    """Lemma 2.4, on schedules: replay each component schedule from its
    start state, patch, and return the composed schedule."""
    from .execution import replay_schedule

    fragments = [
        replay_schedule(component, component.initial_state(), schedule)
        for component, schedule in zip(composition.components, schedules)
    ]
    return patch_executions(composition, fragments, behavior).schedule()

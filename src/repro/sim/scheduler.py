"""Scheduling strategies for fair execution.

The default executor (:func:`repro.ioa.fairness.run_to_quiescence`)
serves tasks round-robin and breaks ties deterministically.  Property
tests want to explore *many* fair interleavings; this module provides
seeded tie-breakers and a convenience wrapper that runs a system under
several schedules and collects all resulting behaviors.
"""

from __future__ import annotations

import random
from typing import Callable, Iterable, Sequence, Tuple

from ..ioa.actions import Action
from ..ioa.automaton import Automaton, State
from ..ioa.execution import ExecutionFragment
from ..ioa.fairness import run_to_quiescence

#: Picks one of a task's enabled actions, given as a tuple in
#: enumeration order (the executor shares it between steps).
TieBreak = Callable[[Sequence[Action]], Action]


def deterministic_tie_break(candidates: Sequence[Action]) -> Action:
    """The default policy: first candidate in enumeration order."""
    return candidates[0]


def seeded_tie_break(seed) -> TieBreak:
    """A tie-breaker choosing uniformly among a task's enabled actions.

    Deterministic in the seed, so failing runs replay exactly.  ``seed``
    may also be a :class:`random.Random` instance, letting callers
    thread one RNG through every source of schedule randomness.
    """
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)

    def pick(candidates: Sequence[Action]) -> Action:
        return candidates[rng.randrange(len(candidates))]

    return pick


def behaviors_under_schedules(
    automaton: Automaton,
    state: State,
    seeds: Iterable[int],
    max_steps: int = 100_000,
) -> Tuple[Tuple[Action, ...], ...]:
    """Run to quiescence under several seeded schedules.

    Returns one behavior (external-action sequence) per seed.  Raises
    :class:`~repro.ioa.fairness.FairnessTimeout` if any schedule fails
    to quiesce -- non-quiescence under *some* fair schedule is itself a
    finding for the systems in this repository.
    """
    behaviors = []
    for seed in seeds:
        fragment = run_to_quiescence(
            automaton,
            ExecutionFragment.initial(state),
            max_steps=max_steps,
            tie_break=seeded_tie_break(seed),
        )
        behaviors.append(fragment.behavior(automaton.signature))
    return tuple(behaviors)

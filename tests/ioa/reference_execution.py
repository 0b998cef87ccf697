"""Step-by-step execution checkers, kept as test references.

Lemmas 2.2 and 2.3 claim that a projection or a patch is an execution
fragment of a given automaton; these checkers confirm it one step at a
time, through the automaton's ``transitions`` relation.
"""

from __future__ import annotations

from repro.ioa import Automaton, ExecutionFragment


def is_valid_for(fragment: ExecutionFragment, automaton: Automaton) -> bool:
    """True iff every triple in ``fragment`` is a step of ``automaton``."""
    states = fragment.states
    for i, action in enumerate(fragment.actions):
        if states[i + 1] not in automaton.transitions(states[i], action):
            return False
    return True


def is_execution_of(fragment: ExecutionFragment, automaton: Automaton) -> bool:
    """True iff ``fragment`` is an execution: valid from a start state."""
    return fragment.first_state == automaton.initial_state() and (
        is_valid_for(fragment, automaton)
    )

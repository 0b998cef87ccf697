"""Fair executions and Lemma 2.1 (paper, Section 2.2).

A fair execution gives fair turns to each task (class of ``part(A)``).
For finite executions the definition reduces to: *no* locally-controlled
action is enabled in the final state (the execution is quiescent).

Lemma 2.1 states that any finite execution can be extended, with any
further sequence of inputs, to a fair execution.  In this executable
reproduction we realize the lemma for systems that *quiesce*: the
executor appends the requested inputs and then runs a round-robin
scheduler over tasks until no locally-controlled action is enabled.  All
of the systems manipulated by the impossibility engines quiesce when run
over clean channels; a protocol whose composition fails to quiesce within
the step budget is reported via :class:`FairnessTimeout`, which the
engines convert into a liveness-violation verdict.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, Iterable, List, Optional

from .actions import Action
from .automaton import Automaton, State
from .execution import ExecutionFragment


class FairnessTimeout(RuntimeError):
    """The system did not quiesce within the allotted step budget."""

    def __init__(self, fragment: ExecutionFragment, budget: int):
        super().__init__(
            f"system did not quiesce within {budget} steps "
            f"({len(fragment)} steps taken)"
        )
        self.fragment = fragment
        self.budget = budget


def is_fair_finite(automaton: Automaton, fragment: ExecutionFragment) -> bool:
    """Fairness check for a finite execution fragment.

    A finite execution is fair iff no action of any partition class is
    enabled in its final state, i.e. the final state is quiescent.
    """
    return automaton.is_quiescent(fragment.final_state)


def apply_inputs(
    automaton: Automaton, state: State, inputs: Iterable[Action]
) -> ExecutionFragment:
    """Feed a sequence of input actions, taking one step per action.

    Input-enabledness guarantees every step exists; a missing transition
    indicates a broken automaton and raises :class:`TransitionError`.
    """
    states = [state]
    actions = []
    for action in inputs:
        if not automaton.signature.is_input(action):
            raise ValueError(f"{action} is not an input action")
        states.append(automaton.step(states[-1], action))
        actions.append(action)
    return ExecutionFragment(tuple(states), tuple(actions))


def run_to_quiescence(
    automaton: Automaton,
    state: State,
    max_steps: int = 100_000,
    stop_when: Optional[Callable[[Action], bool]] = None,
    tie_break: Optional[Callable[[List[Action]], Action]] = None,
) -> ExecutionFragment:
    """Run locally-controlled actions fairly until quiescence.

    The scheduler is a round-robin over tasks: at each step it fires an
    enabled action belonging to the least-recently-served task.  This
    gives fair turns to every class of the partition, so the resulting
    finite execution is fair.

    Parameters
    ----------
    stop_when:
        Optional early-exit predicate; the run stops right after the
        first action satisfying it (the result is then a finite, possibly
        non-quiescent fragment -- a prefix of a fair execution).
    tie_break:
        How to pick among the enabled actions of the chosen task
        (default: first in enumeration order, which makes runs
        deterministic).

    Raises
    ------
    FairnessTimeout
        If more than ``max_steps`` steps are taken without quiescing.
    """
    states = [state]
    actions: List[Action] = []
    current = state
    last_served: Dict[Hashable, int] = {}
    names: Dict[Hashable, str] = {}

    def rank(task: Hashable):
        # Serve the task that has waited longest (never-served tasks
        # first), ties broken by repr -- computed once per task.
        name = names.get(task)
        if name is None:
            name = names[task] = repr(task)
        return (last_served.get(task, -1), name)

    clock = 0
    for _ in range(max_steps):
        enabled = list(automaton.enabled_local_actions(current))
        if not enabled:
            break
        by_task: Dict[Hashable, List[Action]] = {}
        for action in enabled:
            by_task.setdefault(automaton.task_of(action), []).append(action)
        task = min(by_task, key=rank)
        candidates = by_task[task]
        action = tie_break(candidates) if tie_break else candidates[0]
        clock += 1
        last_served[task] = clock
        current = automaton.step(current, action)
        states.append(current)
        actions.append(action)
        if stop_when is not None and stop_when(action):
            break
    else:
        raise FairnessTimeout(
            ExecutionFragment(tuple(states), tuple(actions)), max_steps
        )
    return ExecutionFragment(tuple(states), tuple(actions))


def fair_extension(
    automaton: Automaton,
    fragment: ExecutionFragment,
    inputs: Iterable[Action] = (),
    max_steps: int = 100_000,
    stop_when: Optional[Callable[[Action], bool]] = None,
) -> ExecutionFragment:
    """Lemma 2.1, executably: extend a finite execution fairly.

    Appends the given inputs and then runs the fair scheduler to
    quiescence (or until ``stop_when`` fires).  The returned fragment
    extends ``fragment``; if it ends quiescent it is a fair execution.
    """
    extended = fragment.extend(
        apply_inputs(automaton, fragment.final_state, inputs)
    )
    tail = run_to_quiescence(
        automaton,
        extended.final_state,
        max_steps=max_steps,
        stop_when=stop_when,
    )
    return extended.extend(tail)

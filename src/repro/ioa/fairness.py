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
engines convert into a liveness-violation verdict.  The budget is exact:
a run that quiesces on its last allowed step is fair and returns.

The scheduler is one incremental kernel, :func:`run_to_quiescence`, for
every scripted run.  It sees the automaton as a vector of slices (one per
component of a composition, see :meth:`Automaton.slice_view`) and keeps
each slice's enabled actions grouped by task, so a step re-enumerates
only the slices of the components that own its action.  A component
with a :class:`~repro.ioa.automaton.StepMemo` (a fuzz campaign's or load
run's stations) answers those enumerations and steps from it whenever
it met the slice before, in this run or an earlier one.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence

from .actions import Action
from .automaton import Automaton, State, TransitionError
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
    tie_break: Optional[Callable[[Sequence[Action]], Action]] = None,
) -> ExecutionFragment:
    """Run locally-controlled actions fairly until quiescence.

    The scheduler is a round-robin over tasks: at each step it fires an
    enabled action belonging to the least-recently-served task
    (never-served tasks first, ties broken by the task's ``repr``).  This
    gives fair turns to every class of the partition, so the resulting
    finite execution is fair.

    The kernel steps the automaton's :meth:`~Automaton.slice_view`: one
    slice per component of a composition (through any hiding), or the
    whole state otherwise.  It keeps each slice's enabled actions grouped
    by task and re-enumerates a slice only when a step replaced it, which
    only the components owning the step's action do.  Only those owners
    step, each through its own ``transitions`` (every precondition is
    still checked, or answered by its memo) and each taking its first
    choice.

    Parameters
    ----------
    stop_when:
        Optional early-exit predicate; the run stops right after the
        first action satisfying it (the result is then a finite, possibly
        non-quiescent fragment -- a prefix of a fair execution).
    tie_break:
        How to pick among the enabled actions of the chosen task, given
        as a tuple in enumeration order (default: the first, which makes
        runs deterministic).

    Raises
    ------
    FairnessTimeout
        If a locally-controlled action is still enabled after
        ``max_steps`` steps.  A run that quiesces on its last allowed
        step, or a quiescent start with ``max_steps=0``, returns
        normally.
    TransitionError
        If an owner of the chosen action refuses it.
    """
    view = automaton.slice_view()
    memory = view.memory
    kept, groups, names = memory.kept, memory.groups, memory.task_names
    slots = range(len(kept))
    states = [state]
    actions: List[Action] = []
    current = state
    last_served: Dict[int, int] = {}
    clock = 0
    while True:
        pieces = view.slices(current)
        for i in slots:
            if pieces[i] is not kept[i]:
                groups[i] = view.enumerate(i, pieces[i])
                kept[i] = pieces[i]
        # Serve the task that has waited longest (never-served tasks
        # first), ties broken by repr; on a full tie the first task in
        # enumeration order wins, as under min().
        task = None
        for slot_groups in groups:
            for group_task, group_candidates in slot_groups:
                served = last_served.get(group_task, -1)
                if task is None or served < best or (
                    served == best and names[group_task] < names[task]
                ):
                    task, candidates, best = group_task, group_candidates, served
        if task is None:
            break
        if clock >= max_steps:
            raise FairnessTimeout(
                ExecutionFragment(tuple(states), tuple(actions)), max_steps
            )
        action = tie_break(candidates) if tie_break else candidates[0]
        clock += 1
        last_served[task] = clock
        post = view.step(current, action)
        if not post:
            raise TransitionError(
                f"{automaton.name}: action {action} not enabled in state "
                f"{current!r}"
            )
        current = post[0]
        states.append(current)
        actions.append(action)
        if stop_when is not None and stop_when(action):
            break
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

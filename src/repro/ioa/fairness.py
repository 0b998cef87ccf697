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
with a :class:`~repro.ioa.engine.interning.SliceTable` (a fuzz
campaign's or load run's stations) is stepped by id: the view keeps
its slot's key id, the protocol core's for a station, with the (PL2)
ghost counter beside it, and the table answers the step and the next
task groups, each send stamped with ``uid = counter + 1``, whenever it
met that core and action before, at any counter, in this or an
earlier run.
:meth:`Automaton.step` is the view's step too, so inputs
(:func:`apply_inputs`, a :class:`~repro.sim.session.Session`'s script)
and replayed schedules take the path the kernel takes.

The kernel appends its steps to the caller's
:class:`~repro.ioa.execution.ExecutionFragment` in place, and a
:class:`FairnessTimeout` carries that same record, so a run split into
bursts is one record and never copied.  :func:`fair_extension` returns
its extension as a new fragment over the given one's lists, which it
leaves as it was.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Optional, Sequence

from .actions import Action
from .automaton import REFUSED, Automaton, State, TransitionError
from .execution import ExecutionFragment, replay_schedule


class FairnessTimeout(RuntimeError):
    """The system did not quiesce within the allotted step budget.

    ``fragment`` is the run's record, grown by every step taken.
    """

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


def _inputs(automaton: Automaton, inputs: Iterable[Action]) -> tuple:
    inputs = tuple(inputs)
    for action in inputs:
        if not automaton.signature.is_input(action):
            raise ValueError(f"{action} is not an input action")
    return inputs


def apply_inputs(
    automaton: Automaton, state: State, inputs: Iterable[Action]
) -> ExecutionFragment:
    """Feed a sequence of input actions, taking one step per action.

    Input-enabledness guarantees every step exists; a missing transition
    indicates a broken automaton and raises :class:`TransitionError`.
    """
    return replay_schedule(automaton, state, _inputs(automaton, inputs))


def run_to_quiescence(
    automaton: Automaton,
    record: ExecutionFragment,
    max_steps: int = 100_000,
    stop_when: Optional[Callable[[Action], bool]] = None,
    tie_break: Optional[Callable[[Sequence[Action]], Action]] = None,
) -> ExecutionFragment:
    """Run locally-controlled actions fairly until quiescence.

    The run starts at ``record``'s final state and appends its steps to
    ``record`` (:meth:`~repro.ioa.execution.ExecutionFragment.tip`),
    which it returns.  The scheduler is a round-robin over tasks: at
    each step it fires an enabled action belonging to the
    least-recently-served task (never-served tasks first, ties broken by
    the task's ``repr``).  This gives fair turns to every class of the
    partition, so the resulting finite execution is fair.

    The kernel steps the automaton's :meth:`~Automaton.slice_view`: one
    slice per component of a composition (through any hiding), or the
    whole state otherwise.  It keeps each slice's enabled actions grouped
    by task and re-enumerates a slice only when a step replaced it, which
    only the components owning the step's action do.  Only those owners
    step (:meth:`~repro.ioa.automaton.SliceView.advance`), each through
    its own ``transitions`` or by id through its slice table, so every
    precondition is still checked or answered, and each takes its first
    choice.  Tasks are served by name, their ``repr``.

    Parameters
    ----------
    stop_when:
        Optional early-exit predicate; the run stops right after the
        first action satisfying it (the record then ends at a finite,
        possibly non-quiescent prefix of a fair execution).
    tie_break:
        How to pick among the enabled actions of the chosen task, given
        as a tuple in enumeration order (default: the first, which makes
        runs deterministic).

    Neither callback may run the kernel on the same composition, nor
    :meth:`~Automaton.step` it, which moves the same view: the view
    describes the state the run is in between steps.

    Raises
    ------
    FairnessTimeout
        If a locally-controlled action is still enabled after
        ``max_steps`` steps; the record holds the steps taken.  A run
        that quiesces on its last allowed step, or a quiescent start
        with ``max_steps=0``, returns normally.
    TransitionError
        If an owner of the chosen action refuses it; the record is left
        as it was.
    """
    states, actions = record.tip()
    current = states[-1]
    view = automaton.slice_view()
    view.start(current)
    groups = view.groups
    advance = view.advance
    last_served: Dict[str, int] = {}
    clock = 0
    while True:
        # Serve the task that has waited longest (never-served tasks
        # first), ties broken by name, the task's repr; on a full tie
        # the first task in enumeration order wins, as under min().  No
        # task was served after the clock, so the first one seen leads.
        task, best = None, clock + 1
        for slot_groups in groups:
            for group_task, group_candidates in slot_groups:
                served = last_served.get(group_task, -1)
                if served < best or (served == best and group_task < task):
                    task, candidates, best = group_task, group_candidates, served
        if task is None:
            break
        if clock >= max_steps:
            raise FairnessTimeout(record.grown(), max_steps)
        action = tie_break(candidates) if tie_break else candidates[0]
        clock += 1
        last_served[task] = clock
        post = advance(current, action)
        if post is REFUSED:
            raise TransitionError.refused(automaton, current, action)
        current = post
        states.append(current)
        actions.append(action)
        if stop_when is not None and stop_when(action):
            break
    return record.grown()


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
    extends ``fragment`` over its lists, copying them only if another
    fragment already grew them; ``fragment`` itself keeps its length.  If
    the result ends quiescent it is a fair execution.
    """
    extended = fragment.prefix(len(fragment))
    for action in _inputs(automaton, inputs):
        extended.step(action, automaton.step(extended.final_state, action))
    return run_to_quiescence(
        automaton, extended, max_steps=max_steps, stop_when=stop_when
    )

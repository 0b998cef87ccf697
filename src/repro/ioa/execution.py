"""Executions, schedules and behaviors (paper, Section 2.2).

An execution fragment is an alternating sequence of states and actions
``s0 pi1 s1 pi2 ... pin sn`` such that every ``(s_i, pi_{i+1}, s_{i+1})``
is a step of the automaton.  Its *schedule* is the action subsequence and
its *behavior* is the external-action subsequence.

This module represents finite fragments only; the impossibility arguments
in the paper manipulate finite executions plus fair extensions, which the
executor in :mod:`repro.ioa.fairness` provides.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Tuple

from .actions import Action
from .automaton import Automaton, State
from .signature import ActionSignature

Schedule = Tuple[Action, ...]


@dataclass(frozen=True)
class ExecutionFragment:
    """A finite execution fragment of an automaton.

    ``states`` has exactly one more element than ``actions``.  A fragment
    whose first state is a start state is an *execution*.
    """

    states: Tuple[State, ...]
    actions: Tuple[Action, ...]

    def __post_init__(self) -> None:
        if len(self.states) != len(self.actions) + 1:
            raise ValueError(
                "an execution fragment has exactly one more state than "
                "actions: got %d states and %d actions"
                % (len(self.states), len(self.actions))
            )

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @staticmethod
    def initial(state: State) -> "ExecutionFragment":
        """The empty fragment sitting at ``state``."""
        return ExecutionFragment((state,), ())

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------

    @property
    def first_state(self) -> State:
        return self.states[0]

    @property
    def final_state(self) -> State:
        return self.states[-1]

    def __len__(self) -> int:
        """The number of steps (events) in the fragment."""
        return len(self.actions)

    def schedule(self) -> Schedule:
        """``sched(alpha)``: the action subsequence."""
        return self.actions

    def behavior(self, signature: ActionSignature) -> Schedule:
        """``beh(alpha)``: the subsequence of external actions."""
        return tuple(a for a in self.actions if signature.is_external(a))

    def state_before(self, index: int) -> State:
        """The state immediately before action ``index`` (0-based)."""
        return self.states[index]

    def state_after(self, index: int) -> State:
        """The state immediately after action ``index`` (0-based)."""
        return self.states[index + 1]

    # ------------------------------------------------------------------
    # Structural operations
    # ------------------------------------------------------------------

    def append(self, action: Action, state: State) -> "ExecutionFragment":
        """The fragment extended by one step."""
        return ExecutionFragment(
            self.states + (state,), self.actions + (action,)
        )

    def extend(self, other: "ExecutionFragment") -> "ExecutionFragment":
        """Concatenate ``other`` onto this fragment.

        ``other.first_state`` must equal this fragment's final state.
        """
        if other.first_state != self.final_state:
            raise ValueError(
                "fragments do not compose: final state differs from the "
                "extension's first state"
            )
        return ExecutionFragment(
            self.states + other.states[1:], self.actions + other.actions
        )

    def prefix(self, steps: int) -> "ExecutionFragment":
        """The prefix consisting of the first ``steps`` steps."""
        if not 0 <= steps <= len(self.actions):
            raise ValueError(f"prefix length {steps} out of range")
        return ExecutionFragment(
            self.states[: steps + 1], self.actions[:steps]
        )

    def suffix_from(self, steps: int) -> "ExecutionFragment":
        """The fragment starting after the first ``steps`` steps."""
        if not 0 <= steps <= len(self.actions):
            raise ValueError(f"suffix start {steps} out of range")
        return ExecutionFragment(self.states[steps:], self.actions[steps:])

    def truncate_after(
        self, predicate: Callable[[Action], bool]
    ) -> Optional["ExecutionFragment"]:
        """The shortest prefix whose last action satisfies ``predicate``.

        Returns ``None`` if no action satisfies it.
        """
        for i, action in enumerate(self.actions):
            if predicate(action):
                return self.prefix(i + 1)
        return None

    def with_final_state(self, state: State) -> "ExecutionFragment":
        """Replace the final state (used for adversary channel surgery).

        The impossibility engines use this to realize the paper's "``beta``
        can leave the channel in state ``s``" arguments (Lemmas 6.3, 6.5,
        6.6, 6.7): the same schedule is compatible with a different final
        channel state because the channel's start-state nondeterminism is
        resolved retroactively.
        """
        return ExecutionFragment(self.states[:-1] + (state,), self.actions)

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------

    def is_valid_for(self, automaton: Automaton) -> bool:
        """True iff every triple in this fragment is a step of ``automaton``."""
        for i, action in enumerate(self.actions):
            if self.states[i + 1] not in automaton.transitions(
                self.states[i], action
            ):
                return False
        return True

    def is_execution_of(self, automaton: Automaton) -> bool:
        """True iff this fragment is an execution (starts at a start state)."""
        return (
            self.first_state == automaton.initial_state()
            and self.is_valid_for(automaton)
        )


def replay_schedule(
    automaton: Automaton, state: State, schedule: Iterable[Action]
) -> ExecutionFragment:
    """Drive ``automaton`` from ``state`` along ``schedule`` deterministically.

    Every action must be enabled where it occurs; the first post-state is
    taken at each step.  Raises :class:`TransitionError` otherwise.
    """
    states = [state]
    actions = []
    for action in schedule:
        states.append(automaton.step(states[-1], action))
        actions.append(action)
    return ExecutionFragment(tuple(states), tuple(actions))


def project_schedule(
    schedule: Iterable[Action], signature: ActionSignature
) -> Schedule:
    """``beta | A``: the subsequence of actions in ``acts(A)``."""
    return tuple(a for a in schedule if signature.contains(a))


def external_of(
    schedule: Iterable[Action], signature: ActionSignature
) -> Schedule:
    """The behavior of a schedule: its external-action subsequence."""
    return tuple(a for a in schedule if signature.is_external(a))


def inputs_of(
    schedule: Iterable[Action], signature: ActionSignature
) -> Schedule:
    """``beta | in(A)``: the input-action subsequence."""
    return tuple(a for a in schedule if signature.is_input(a))

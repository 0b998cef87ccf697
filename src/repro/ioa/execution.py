"""Executions, schedules and behaviors (paper, Section 2.2).

An execution fragment is an alternating sequence of states and actions
``s0 pi1 s1 pi2 ... pin sn`` such that every ``(s_i, pi_{i+1}, s_{i+1})``
is a step of the automaton.  Its *schedule* is the action subsequence and
its *behavior* is the external-action subsequence.

This module represents finite fragments only; the impossibility arguments
in the paper manipulate finite executions plus fair extensions, which the
executor in :mod:`repro.ioa.fairness` provides.

The paper's lemmas only ever extend an execution (Lemmas 2.1, 8.3, 8.4)
or read back a prefix of it (Lemma 7.1), so a fragment is a length over
``states``/``actions`` lists that only ever grow: extending one appends
to its lists in place (:meth:`ExecutionFragment.tip`), and a prefix
(:meth:`ExecutionFragment.prefix`) shares them.  No element at an index
within any fragment's length is ever rewritten, with one exception: the
owner of a record that shares its lists with no other fragment may
replace its final state (the constructions' channel surgery, Section
6.3).
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

from .actions import Action
from .automaton import Automaton, State
from .signature import ActionSignature

Schedule = Tuple[Action, ...]


class ExecutionFragment:
    """A finite execution fragment of an automaton.

    The fragment is the first ``len(self)`` actions and ``len(self) + 1``
    states of its lists, which other fragments may share.  ``states`` and
    ``actions`` read as tuples: the first read builds them once and the
    fragment keeps them in place of its lists.  ``==`` compares contents.
    A fragment whose first state is a start state is an *execution*.
    """

    __slots__ = ("_states", "_actions", "_length")

    def __init__(
        self,
        states: Sequence[State],
        actions: Sequence[Action],
        length: Optional[int] = None,
    ):
        if length is None:
            length = len(actions)
            if len(states) != length + 1:
                raise ValueError(
                    "an execution fragment has exactly one more state "
                    "than actions: got %d states and %d actions"
                    % (len(states), length)
                )
        self._states = states
        self._actions = actions
        self._length = length

    @staticmethod
    def initial(state: State) -> "ExecutionFragment":
        """The empty fragment sitting at ``state``."""
        return ExecutionFragment([state], [])

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------

    @property
    def states(self) -> Tuple[State, ...]:
        self._states = _first(self._states, self._length + 1, tuple)
        return self._states

    @property
    def actions(self) -> Schedule:
        self._actions = _first(self._actions, self._length, tuple)
        return self._actions

    @property
    def first_state(self) -> State:
        return self._states[0]

    @property
    def final_state(self) -> State:
        return self._states[self._length]

    def __len__(self) -> int:
        """The number of steps (events) in the fragment."""
        return self._length

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExecutionFragment):
            return NotImplemented
        return (
            self._length == other._length
            and self.actions == other.actions
            and self.states == other.states
        )

    __hash__ = None  # a record grows in place

    def __repr__(self) -> str:
        return (
            f"ExecutionFragment(states={self.states!r}, "
            f"actions={self.actions!r})"
        )

    def schedule(self) -> Schedule:
        """``sched(alpha)``: the action subsequence."""
        return self.actions

    def behavior(self, signature: ActionSignature) -> Schedule:
        """``beh(alpha)``: the subsequence of external actions."""
        return tuple(a for a in self.actions if signature.is_external(a))

    def prefix(self, steps: int) -> "ExecutionFragment":
        """The prefix of the first ``steps`` steps, sharing the lists."""
        if not 0 <= steps <= self._length:
            raise ValueError(f"prefix length {steps} out of range")
        return ExecutionFragment(self._states, self._actions, steps)

    # ------------------------------------------------------------------
    # Extending in place
    # ------------------------------------------------------------------

    def tip(self) -> Tuple[List[State], List[Action]]:
        """Lists ending where this fragment ends, to append steps to;
        :meth:`grown` then takes the appended steps as the fragment's.

        Lists that another fragment has grown past this one's end, or
        that reads froze into tuples, are first copied up to the end.
        """
        states, actions, length = self._states, self._actions, self._length
        if type(actions) is not list or len(actions) != length:
            actions = self._actions = _first(actions, length, list)
        if type(states) is not list or len(states) != length + 1:
            states = self._states = _first(states, length + 1, list)
        return states, actions

    def grown(self) -> "ExecutionFragment":
        """Take every step appended to :meth:`tip`'s lists."""
        self._length = len(self._actions)
        return self

    def step(self, action: Action, state: State) -> None:
        """Extend the fragment by one step."""
        states, actions = self.tip()
        states.append(state)
        actions.append(action)
        self._length += 1


def _first(items: Sequence, count: int, kind: type) -> Sequence:
    """``items`` if it is a ``kind`` of ``count`` items, else its first
    ``count`` items copied into a new ``kind``."""
    if type(items) is kind and len(items) == count:
        return items
    return kind(items if len(items) == count else items[:count])


def replay_schedule(
    automaton: Automaton, state: State, schedule: Iterable[Action]
) -> ExecutionFragment:
    """Drive ``automaton`` from ``state`` along ``schedule`` deterministically.

    Every action must be enabled where it occurs; the first post-state is
    taken at each step.  Raises :class:`TransitionError` otherwise.
    """
    run = ExecutionFragment.initial(state)
    for action in schedule:
        run.step(action, automaton.step(run.final_state, action))
    return run


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

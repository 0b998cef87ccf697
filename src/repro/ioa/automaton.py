"""The I/O automaton abstraction (paper, Section 2.2).

An I/O automaton has an action signature, states, start states, a
transition relation that is *input-enabled* (every input action is enabled
in every state), and a partition of its locally-controlled actions into
*tasks* used to define fairness.

States are arbitrary hashable immutable Python values.  The transition
relation is exposed through two methods:

* :meth:`Automaton.transitions` -- the set of post-states for a (state,
  action) pair; for input actions this must be non-empty in every state;
* :meth:`Automaton.enabled_local_actions` -- the locally-controlled actions
  enabled in a state (the outputs and internals with a true precondition).

The partition ``part(A)`` is exposed as :meth:`Automaton.task_of`, mapping
each locally-controlled action to a hashable task identifier.  A fair
execution gives fair turns to every task.
"""

from __future__ import annotations

import weakref
from abc import ABC, abstractmethod
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Hashable,
    Iterable,
    List,
    Optional,
    Tuple,
)

from .actions import Action
from .signature import ActionSignature

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from .engine.interning import SliceTable

State = Any


class TransitionError(RuntimeError):
    """Raised when an automaton is asked to take a step it cannot take."""

    @classmethod
    def refused(cls, automaton: "Automaton", state: Any, action: Action):
        """The error for ``action``, not enabled in ``state``."""
        return cls(f"{automaton.name}: action {action} not enabled in state {state!r}")


#: Placeholder for a slot no slice has been enumerated in yet.
_UNSEEN = object()

#: What :meth:`SliceView.step` returns for a step an owner refuses.
REFUSED = object()

#: A task's enabled actions as the fair kernel keeps them: the task's
#: name (see :class:`TaskNames`) and its candidates in enumeration order.
TaskGroup = Tuple[str, Tuple[Action, ...]]


class TaskNames(dict):
    """``task -> repr(task)``: the name the fair kernel serves a task by
    and breaks ties by.  A distinct task with a name already given
    raises ``ValueError`` rather than share the first one's turns.
    Names last as long as their view, so they must not name a run's seed."""

    def __missing__(self, task: Hashable) -> str:
        name = repr(task)
        if name in self.values():
            raise ValueError(f"two distinct tasks share the name {name}")
        self[task] = name
        return name


def with_memo(automaton: "Automaton") -> "Automaton":
    """``automaton`` with a fresh
    :class:`~repro.ioa.engine.interning.SliceTable` attached.

    It pays only where slices repeat: a fuzz campaign's or load run's
    stations, an exhaustive walk's finite-state components; a seeded
    channel's states never repeat, so channels carry none.
    """
    from .engine.interning import SliceTable

    # Weakly: a strong back-reference is a cycle, which would keep a
    # finished run's slices alive until the cycle collector runs.
    automaton.table = SliceTable(weakref.proxy(automaton))
    return automaton


class SliceView:
    """The fair-stepping kernel's view of an automaton: a vector of slices.

    A step changes only the slices its action's owners hold, so the
    kernel (:func:`repro.ioa.fairness.run_to_quiescence`) keeps, per
    slot ``i``, the slice last enumerated there (``kept[i]``) and its
    enabled local actions grouped by task (``groups[i]``).  A run's
    :meth:`start` and each :meth:`advance` re-enumerate only the slices
    that are not the ones kept.  Keying on identity is sound because
    automata are pure functions of immutable states, and holding the
    slice keeps its identity from being reused.  ``task_names`` names
    the tasks of untabled slots; a table names its own slot's and
    answers every slice it has seen, for as long as it lives.

    This base view has one slice, the whole state, whose tasks are
    exactly ``automaton.task_of(action)``, and lasts one run.
    :class:`Composition` overrides it with one slice per component and
    keeps its view for every run.
    """

    def __init__(self, automaton: "Automaton", size: int = 1):
        self.automaton = automaton
        self.kept: List[Any] = [_UNSEEN] * size
        self.groups: List[Tuple[TaskGroup, ...]] = [()] * size
        self.task_names = TaskNames()

    def start(self, state: State) -> None:
        """Make the view describe ``state``."""
        if state is not self.kept[0]:
            self.groups[0] = self._group(
                self.automaton.enabled_local_actions(state),
                self.automaton.task_of,
            )
            self.kept[0] = state

    def step(self, state: State, action: Action) -> State:
        """The post-state :meth:`Automaton.step` takes, or :data:`REFUSED`:
        the first choice.  This one-slice view enumerates nothing."""
        post = self.automaton.transitions(state, action)
        return post[0] if post else REFUSED

    def advance(self, state: State, action: Action) -> State:
        """:meth:`step` from ``state``, which must be the one the view
        describes; the view then describes the post-state."""
        post = self.step(state, action)
        if post is not REFUSED:
            self.start(post)
        return post

    def _group(
        self, actions: Iterable[Action], task_of: Callable[[Action], Hashable]
    ) -> Tuple[TaskGroup, ...]:
        """Group enabled actions by named task, in enumeration order."""
        names = self.task_names
        actions = tuple(actions)
        if len(actions) < 2:
            # Most slices enable at most one action.
            return ((names[task_of(actions[0])], actions),) if actions else ()
        by_task: Dict[str, List[Action]] = {}
        for action in actions:
            by_task.setdefault(names[task_of(action)], []).append(action)
        return tuple(
            (task, tuple(candidates)) for task, candidates in by_task.items()
        )


class Automaton(ABC):
    """Abstract base class for I/O automata.

    Subclasses provide a name, a signature, an initial state, the
    transition relation and (optionally) a task partition.  The default
    partition places all locally-controlled actions in a single task,
    which is what the paper's channels use.
    """

    name: str = "automaton"

    #: Per-slice answers kept across runs (:func:`with_memo`), or ``None``.
    table: Optional["SliceTable"] = None

    # ------------------------------------------------------------------
    # Interface to implement
    # ------------------------------------------------------------------

    @property
    @abstractmethod
    def signature(self) -> ActionSignature:
        """The action signature ``sig(A)``."""

    @abstractmethod
    def initial_state(self) -> State:
        """A start state of the automaton.

        The paper allows a set of start states; automata with genuinely
        nondeterministic starts (the channels, whose delivery set or
        plan is arbitrary) return a default one (FIFO and loss-free),
        and take no adversary of their own.  A caller that needs another
        start passes it in: ``DataLinkSystem.started`` for a pair of
        seeded channel states, ``initial_state=`` elsewhere.
        """

    @abstractmethod
    def transitions(self, state: State, action: Action) -> Tuple[State, ...]:
        """All states ``s`` with ``(state, action, s)`` in ``steps(A)``.

        Must return a non-empty tuple whenever ``action`` is an input
        action of the automaton (input-enabledness).  May return the
        empty tuple for a locally-controlled action whose precondition
        does not hold in ``state``.
        """

    @abstractmethod
    def enabled_local_actions(self, state: State) -> Iterable[Action]:
        """The locally-controlled actions enabled in ``state``."""

    # ------------------------------------------------------------------
    # Partition / tasks
    # ------------------------------------------------------------------

    def task_of(self, action: Action) -> Hashable:
        """The task (equivalence class of ``part(A)``) of a local action.

        The default is a single class containing all locally-controlled
        actions of the automaton.
        """
        return (self.name, "main")

    def tasks(self) -> Iterable[Hashable]:
        """Best-effort enumeration of this automaton's task identifiers.

        Used by fair executors to give turns; automata with richer
        partitions should override.  The default single-task partition
        is returned here.
        """
        return [(self.name, "main")]

    # ------------------------------------------------------------------
    # Conveniences
    # ------------------------------------------------------------------

    def slice_view(self) -> SliceView:
        """How the fair kernel steps this automaton (default: one slice)."""
        return SliceView(self)

    def is_enabled(self, state: State, action: Action) -> bool:
        """True iff some step ``(state, action, s)`` exists."""
        return bool(self.transitions(state, action))

    def step(self, state: State, action: Action) -> State:
        """Take a step, returning the unique (or first) post-state.

        Raises :class:`TransitionError` if the action is not enabled.
        Most automata in this repository are deterministic, in which
        case this is *the* post-state.  The step is the
        :meth:`slice_view`'s, so a composition moves its kept view.
        """
        post = self.slice_view().step(state, action)
        if post is REFUSED:
            raise TransitionError.refused(self, state, action)
        return post

    def is_quiescent(self, state: State) -> bool:
        """True iff no locally-controlled action is enabled in ``state``.

        A finite execution ending in a quiescent state is fair (paper,
        Section 2.2: no class of the partition has an enabled action).
        """
        for _ in self.enabled_local_actions(state):
            return False
        return True

    def check_input_enabled(self, state: State, actions: Iterable[Action]) -> bool:
        """Spot-check input-enabledness for the given input actions."""
        for action in actions:
            if self.signature.is_input(action) and not self.is_enabled(
                state, action
            ):
                return False
        return True

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
    Sequence,
    Tuple,
)

from .actions import Action
from .signature import ActionSignature

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from .engine.interning import SliceTable

State = Any


class TransitionError(RuntimeError):
    """Raised when an automaton is asked to take a step it cannot take."""


#: Placeholder for a slot no slice has been enumerated in yet.
_UNSEEN = object()

#: A task's enabled actions as the fair kernel keeps them: the task's
#: interned id and its candidates in enumeration order.
TaskGroup = Tuple[int, Tuple[Action, ...]]


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


class SliceMemory:
    """What the fair kernel keeps of an automaton's slices between steps.

    ``kept[i]`` is the slice last enumerated in slot ``i`` and
    ``groups[i]`` its task groups.  Keying on identity is sound because
    automata are pure functions of immutable states, and holding the
    slice keeps its identity from being reused.  Tasks are interned:
    ``task_names[id]`` is the ``repr`` the scheduler breaks ties by.
    It lasts one composition; a component's slice table can outlast
    many and answers every slice it has seen.
    """

    def __init__(self, size: int):
        self.kept: List[Any] = [_UNSEEN] * size
        self.groups: List[Tuple[TaskGroup, ...]] = [()] * size
        self.task_names: List[str] = []
        self._task_ids: Dict[Hashable, int] = {}

    def task_id(self, task: Hashable) -> int:
        task_id = self._task_ids.get(task)
        if task_id is None:
            task_id = self._task_ids[task] = len(self.task_names)
            self.task_names.append(repr(task))
        return task_id


class SliceView:
    """The fair-stepping kernel's view of an automaton: a vector of slices.

    A step changes only the slices its action's owners hold, so the
    kernel (:func:`repro.ioa.fairness.run_to_quiescence`) keeps each
    slice's enabled local actions, grouped by task, in ``memory`` and
    re-enumerates a slice only when it is a new object.

    This base view has one slice, the whole state, whose tasks are
    exactly ``automaton.task_of(action)``, and a fresh memory per run.
    :class:`Composition` overrides it with one slice per component and a
    memory that outlives the run.
    """

    def __init__(
        self, automaton: "Automaton", memory: Optional[SliceMemory] = None
    ):
        self.automaton = automaton
        self.memory = SliceMemory(1) if memory is None else memory

    def slices(self, state: State) -> Sequence[State]:
        """The slices of ``state``, one per slot."""
        return (state,)

    def enumerate(self, index: int, piece: State) -> Tuple[TaskGroup, ...]:
        """Task groups of one slice, in enumeration order."""
        return self._group(
            self.automaton.enabled_local_actions(piece),
            self.automaton.task_of,
        )

    def step(self, state: State, action: Action) -> Tuple[State, ...]:
        """The post-state the kernel takes, as a 1-tuple; ``()`` if refused.

        That is the first choice, the post-state :meth:`Automaton.step`
        takes.
        """
        return self.automaton.transitions(state, action)[:1]

    def _group(
        self, actions: Iterable[Action], task_of: Callable[[Action], Hashable]
    ) -> Tuple[TaskGroup, ...]:
        """Group enabled actions by interned task, in enumeration order."""
        task_id = self.memory.task_id
        actions = tuple(actions)
        if len(actions) < 2:
            # Most slices enable at most one action.
            return ((task_id(task_of(actions[0])), actions),) if actions else ()
        by_task: Dict[int, List[Action]] = {}
        for action in actions:
            by_task.setdefault(task_id(task_of(action)), []).append(action)
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
        nondeterministic starts (the permissive channels, whose delivery
        set is arbitrary) are parameterized by their start choice at
        construction time, so a single state suffices here.
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
        case this is *the* post-state.
        """
        post = self.transitions(state, action)
        if not post:
            raise TransitionError(
                f"{self.name}: action {action} not enabled in state {state!r}"
            )
        return post[0]

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

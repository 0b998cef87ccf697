"""The output-hiding operator ``hide_Phi`` (paper, Section 2.6).

``hide_Phi(A)`` is identical to ``A`` except that the output families in
``Phi`` become internal.  The paper applies it to the composition of a
data link protocol with its physical channels, hiding the ``send_pkt`` and
``receive_pkt`` actions so that only data-link-layer actions remain
external.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Tuple

from .actions import Action
from .automaton import Automaton, SliceView, State
from .signature import ActionSignature, FamilyKey


class Hidden(Automaton):
    """``hide_Phi(inner)``: reclassify some output families as internal."""

    def __init__(self, inner: Automaton, families: Iterable[FamilyKey]):
        self._inner = inner
        self._families = frozenset(families)
        self._signature = inner.signature.hide(self._families)
        self.name = f"hide({inner.name})"

    @property
    def inner(self) -> Automaton:
        return self._inner

    @property
    def hidden_families(self) -> frozenset:
        return self._families

    @property
    def signature(self) -> ActionSignature:
        return self._signature

    def initial_state(self) -> State:
        return self._inner.initial_state()

    def transitions(self, state: State, action: Action) -> Tuple[State, ...]:
        return self._inner.transitions(state, action)

    def enabled_local_actions(self, state: State) -> Iterable[Action]:
        return self._inner.enabled_local_actions(state)

    def task_of(self, action: Action) -> Hashable:
        return self._inner.task_of(action)

    def tasks(self) -> Iterable[Hashable]:
        return self._inner.tasks()

    def slice_view(self) -> SliceView:
        # Hiding reclassifies families; steps and tasks are the inner's.
        return self._inner.slice_view()


def hide(automaton: Automaton, families: Iterable[FamilyKey]) -> Hidden:
    """Functional spelling of :class:`Hidden`."""
    return Hidden(automaton, families)

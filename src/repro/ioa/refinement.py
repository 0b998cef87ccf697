"""Refinement mappings: proving ``solves`` structurally (paper, Section 2.4).

The paper's ``A solves H`` is an inclusion of behavior sets.  The
classical way to *prove* such inclusions in the I/O-automaton tradition
is a simulation; this module implements its simplest form, a
**refinement mapping**: a function ``f`` from implementation states to
specification states such that

* ``f(start_impl)`` is the specification's start state,
* for every reachable implementation step ``(s, a, s')``:

  - if ``a`` is an action of the specification, then
    ``(f(s), a, f(s'))`` is a specification step;
  - otherwise the step *stutters*: ``f(s') = f(s)``.

Every behavior of the implementation (projected onto specification
actions) is then a behavior of the specification.  The check is run
exhaustively over the implementation's reachable states (under an
optional input environment), so at bounded scope it is a proof, with a
concrete failing step reported otherwise.

Used by the tests to prove, e.g., that the alternating-bit protocol
composed with arbitrary bounded lossy FIFO channels refines a
one-queue reliable-delivery specification automaton -- the structural
counterpart of the harness' sampled ``DL`` conformance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from .actions import Action
from .automaton import Automaton, State
from .engine.core import _reconstruct


@dataclass
class RefinementResult:
    """Outcome of an exhaustive refinement check."""

    holds: bool
    states_checked: int
    exhaustive: bool
    failure: Optional[str] = None
    failing_trace: Tuple[Action, ...] = ()

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.holds


def check_refinement(
    implementation: Automaton,
    specification: Automaton,
    mapping: Callable[[State], State],
    environment: Callable[[State], Iterable[Action]] = lambda _: (),
    max_states: int = 200_000,
) -> RefinementResult:
    """Exhaustively check that ``mapping`` is a refinement mapping.

    Explores the implementation's reachable states (locally-controlled
    actions plus whatever inputs ``environment`` offers) and validates
    the two refinement conditions at every step.  Specification actions
    are those in ``specification.signature``; all other implementation
    actions must stutter.

    The walk is trace-free: instead of carrying an O(depth) action
    trace per frontier entry, a parent-pointer map records one
    (predecessor, action) pair per state and the failing trace is
    reconstructed only when a condition is actually violated.  The
    slice tables on the composition's components make the per-step
    transition queries cache hits.
    """
    start = implementation.initial_state()
    if mapping(start) != specification.initial_state():
        return RefinementResult(
            False,
            0,
            True,
            failure=(
                f"start state maps to {mapping(start)!r}, not the "
                f"specification start {specification.initial_state()!r}"
            ),
        )
    # parents doubles as the seen set: state -> (predecessor, action),
    # None for the start state.
    parents: Dict[State, Optional[Tuple[State, Action]]] = {start: None}
    frontier: List[State] = [start]
    truncated = False

    def failing_trace(state: State, action: Action) -> Tuple[Action, ...]:
        return _reconstruct(parents, state) + (action,)

    while frontier:
        next_frontier: List[State] = []
        for state in frontier:
            abstract = mapping(state)
            actions: List[Action] = list(
                implementation.enabled_local_actions(state)
            )
            actions.extend(environment(state))
            for action in actions:
                spec_action = specification.signature.contains(action)
                for successor in implementation.transitions(state, action):
                    new_abstract = mapping(successor)
                    if spec_action:
                        if new_abstract not in specification.transitions(
                            abstract, action
                        ):
                            return RefinementResult(
                                False,
                                len(parents),
                                not truncated,
                                failure=(
                                    f"step {action} maps {abstract!r} to "
                                    f"{new_abstract!r}, which is not a "
                                    "specification step"
                                ),
                                failing_trace=failing_trace(state, action),
                            )
                    elif new_abstract != abstract:
                        return RefinementResult(
                            False,
                            len(parents),
                            not truncated,
                            failure=(
                                f"non-specification step {action} failed "
                                f"to stutter: {abstract!r} became "
                                f"{new_abstract!r}"
                            ),
                            failing_trace=failing_trace(state, action),
                        )
                    if successor in parents:
                        continue
                    if len(parents) >= max_states:
                        truncated = True
                        continue
                    parents[successor] = (state, action)
                    next_frontier.append(successor)
        frontier = next_frontier
    return RefinementResult(True, len(parents), not truncated)

"""The naive breadth-first explorer, kept as the differential oracle.

This is the original explorer the engine was rewritten from.  It
carries the full action trace in every frontier entry (O(depth) memory
per state) and re-derives every component step.  Every backend behind
:func:`repro.ioa.explorer.explore` must return exactly its
reachable-state set and ``truncated`` flag, and an equally short
counterexample (``tests/ioa/test_engine.py``,
``tests/ioa/test_differential.py``).  ``benchmarks/bench_model_check.py``
times the engine against it.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Iterable, List, Optional, Set

from repro.ioa.actions import Action
from repro.ioa.automaton import Automaton, State
from repro.ioa.explorer import ExplorationResult


def reference_explore(
    automaton: Automaton,
    environment: Optional[Callable[[State], Iterable[Action]]] = None,
    invariant: Optional[Callable[[State], bool]] = None,
    max_states: int = 50_000,
    max_depth: int = 10_000,
    initial_state: Optional[State] = None,
) -> ExplorationResult:
    """Bounded BFS with the contract of :func:`repro.ioa.explorer.explore`."""
    start = (
        initial_state
        if initial_state is not None
        else automaton.initial_state()
    )
    if invariant is not None and not invariant(start):
        return ExplorationResult({start}, False, (start, ()))

    seen: Set[State] = {start}
    frontier = deque([(start, (), 0)])
    truncated = False
    while frontier:
        state, trace, depth = frontier.popleft()
        if depth >= max_depth:
            truncated = True
            continue
        actions: List[Action] = list(automaton.enabled_local_actions(state))
        if environment is not None:
            actions.extend(environment(state))
        for action in actions:
            for successor in automaton.transitions(state, action):
                if successor in seen:
                    continue
                new_trace = trace + (action,)
                if invariant is not None and not invariant(successor):
                    seen.add(successor)
                    return ExplorationResult(
                        seen, truncated, (successor, new_trace)
                    )
                if len(seen) >= max_states:
                    # Budget spent: stop at once instead of grinding
                    # through the remaining successors and frontier
                    # (every queued state was already invariant-checked
                    # when it was enqueued).
                    return ExplorationResult(seen, True)
                seen.add(successor)
                frontier.append((successor, new_trace, depth + 1))
    return ExplorationResult(seen, truncated)

"""Bounded state-space exploration for I/O automata.

Small utilities used by tests and examples to exhaustively explore the
reachable states of an automaton (or composition) under a bounded input
environment.  This provides lightweight model checking of safety
invariants -- e.g. "the alternating-bit protocol never delivers out of
order over any FIFO-channel adversary with at most N in-flight packets".

:func:`explore` is the public entry point and the one place a backend
is chosen.  By default it runs closed compositions on the compiled
packed-key core (:mod:`repro.ioa.engine.accel`) and every other call on
the pure-Python engine (:mod:`repro.ioa.engine.core`): one search loop
with trace-free parent-pointer frontiers, run over plain states or,
for a composition, over interned states with memoized component
stepping.  When the compiled core cannot run, the engine answers and
``result.fallback`` says why.  The original naive breadth-first search
is kept in the test suite (``tests/ioa/reference_explorer.py``): it is
the differential-testing oracle both backends are validated against,
and the ground truth for the result contract.

Budget contract (every backend): when the ``max_states`` budget is
reached the search stops immediately -- no further successors of the
current state or layer are expanded.  States that were queued but never
expanded still had the invariant checked when they were first reached,
so every state in ``ExplorationResult.states`` is certified even on a
truncated run.
"""

from __future__ import annotations

import os
from typing import Callable, Iterable, Optional, Set

from ..obs import current_tracer
from .actions import Action
from .automaton import Automaton, State
from .composition import Composition
from .engine.core import (
    ExplorationResult,
    InputEnablednessError,
    explore_engine,
)

__all__ = [
    "ExplorationResult",
    "InputEnablednessError",
    "explore",
    "reachable_states",
]


def explore(
    automaton: Automaton,
    environment: Optional[Callable[[State], Iterable[Action]]] = None,
    invariant: Optional[Callable[[State], bool]] = None,
    max_states: int = 50_000,
    max_depth: int = 10_000,
    validate: bool = False,
    initial_state: Optional[State] = None,
) -> ExplorationResult:
    """Breadth-first exploration of reachable states.

    ``initial_state`` overrides the automaton's own initial state --
    the self-stabilization workloads start the search from a corrupted
    composed state instead of the clean one.  The override must be a
    structurally valid state for the automaton; no reachability from
    the clean start is assumed (that is the point).

    At each state, the successors are all enabled locally-controlled
    actions plus whatever input actions the ``environment`` callback
    offers for that state.  ``invariant`` (if given) is checked at every
    reachable state; the first violating state and its action trace are
    reported (the trace is layer-minimal: BFS finds a shortest
    counterexample by action count).

    Nondeterministic transitions are followed exhaustively.

    ``validate=True`` is a debug mode that checks input-enabledness at
    every expanded state: if the environment offers an input action with
    no transition, :class:`InputEnablednessError` is raised (this is
    ``Automaton.check_input_enabled`` wired into the engine).

    A :class:`~repro.ioa.composition.Composition` with no
    ``environment``/``validate`` runs on the compiled packed-key core
    (:func:`repro.ioa.engine.accel.explore_accel`, built on demand from
    ``engine/_accel.c``) and everything else on the pure-Python engine
    (:func:`repro.ioa.engine.core.explore_engine`).  When the compiled
    core cannot run a call it should -- no C compiler, a composition
    too wide for packed keys, or a state space that outgrows the
    packing mid-search -- the engine answers instead and says why:
    the reason lands in ``result.fallback`` and, under tracing, is
    counted as ``explore.accel_fallback``.  ``REPRO_ACCEL_REQUIRE=1``
    turns a build or load failure into an error.
    """
    fallback: Optional[str] = None
    if (
        isinstance(automaton, Composition)
        and environment is None
        and not validate
    ):
        # Imported here so that runs which never explore a composition
        # do not pay for the build machinery (subprocess, sysconfig).
        from .engine.accel import AccelUnavailable, explore_accel
        from .engine.encoding import EncodingOverflow

        try:
            return explore_accel(
                automaton,
                invariant=invariant,
                max_states=max_states,
                max_depth=max_depth,
                initial_state=initial_state,
            )
        except AccelUnavailable as exc:
            # Only a build or load failure gets here: the call itself
            # meets every precondition of the compiled core.
            if os.environ.get("REPRO_ACCEL_REQUIRE"):
                raise
            fallback = str(exc)[:200]
        except EncodingOverflow as exc:
            fallback = str(exc)[:200]
        tracer = current_tracer()
        if tracer.enabled:
            tracer.count("explore.accel_fallback", 1, reason=fallback)
    result = explore_engine(
        automaton,
        environment=environment,
        invariant=invariant,
        max_states=max_states,
        max_depth=max_depth,
        validate=validate,
        initial_state=initial_state,
    )
    result.fallback = fallback
    return result


def reachable_states(
    automaton: Automaton,
    environment: Optional[Callable[[State], Iterable[Action]]] = None,
    max_states: int = 50_000,
) -> Set[State]:
    """The set of states reachable under the given environment."""
    return explore(
        automaton, environment=environment, max_states=max_states
    ).states

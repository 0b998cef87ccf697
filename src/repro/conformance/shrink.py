"""Counterexample shrinking: locally-minimal violating input scripts.

Given a script whose execution violates some oracle, the shrinker
searches for a shorter script that still violates the *same* oracle
under the *same* adversary (channel delivery sets and interleaving
sub-seeds are held fixed; only the input script changes).  Candidates
must remain admissible environment scripts
(:func:`~repro.conformance.harness.script_admissible`) -- deleting a
``wake`` without its paired ``fail``, say, would produce a malformed
schedule whose "violations" are the environment's fault.

Three deletion passes run to fixpoint under a re-execution budget:

1. **ddmin** (Zeller-Hildebrandt delta debugging): try deleting
   progressively finer chunks, halving granularity when stuck;
2. **single-action deletion**: one action at a time, back to front;
3. **adjacent-pair deletion**: removes the ``fail``/``wake`` and
   ``crash``/``wake`` couples the generator emits as units, which no
   single deletion can remove without breaking alternation.

The result is locally minimal *for these moves*: no single chunk, action
or adjacent pair can be deleted without losing the violation.

Candidate verdicts are memoized: successive passes (and successive
fixpoint rounds) revisit many identical candidate scripts, and since a
candidate's verdict is a pure function of its actions (the adversary
and interleaving sub-seeds are held fixed), a repeated candidate is
answered from cache without re-execution.  ``attempts`` counts actual
re-executions only, so the budget buys strictly more distinct
candidates than before -- the search is deterministic either way.
This matters doubly since shrinking runs *inside* the fuzz-pool
workers: wasted re-executions there serialize whole batches.

A re-execution is not a run from the initial state.  Every candidate
of one shrink shares the system, seeds and start, so its run up to its
first input that no earlier candidate executed at that position is an
earlier candidate's: it resumes from that input boundary, held in a
per-shrink :class:`~repro.sim.session.Checkpoints` trie.  For a
prefix-scope target (outside ``init_mode="arbitrary"``) the target's
monitors are the run's stop predicate and give the verdict
(:class:`~repro.conformance.oracles.PrefixWatch`): the run ends at the
target's first violating event, or at once if the resumed prefix
already violated.  Quiescent- and run-scope targets drain and are
checked whole.  Either way the verdict is the full re-execution's, so
the search, its budget and its result do not change; a resumed or
early-answered candidate still counts as one attempt.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..ioa.actions import Action
from ..obs import current_tracer
from ..sim.network import DataLinkSystem
from ..sim.session import Checkpoints
from .harness import FuzzConfig, SubSeeds, execute_script, script_admissible
from .oracles import PrefixWatch, check_execution, prefix_scoped


@dataclass
class ShrinkResult:
    """Outcome of one shrink search."""

    actions: Tuple[Action, ...]
    original_length: int
    attempts: int
    rounds: int
    budget_exhausted: bool

    @property
    def length(self) -> int:
        return len(self.actions)


def shrink_script(
    system: DataLinkSystem,
    actions: Sequence[Action],
    oracle_name: str,
    subseeds: SubSeeds,
    config: FuzzConfig,
) -> ShrinkResult:
    """Shrink ``actions`` while the named oracle still fires.

    Each candidate is executed under the original adversary, resuming
    from the deepest checkpoint an earlier candidate left on its input
    prefix, and judged on the named oracle alone -- by the target's
    monitors as the run goes for a prefix-scope target, by
    :func:`check_execution` on the drained run otherwise.  A candidate
    is accepted only if that oracle is violated again, so the shrinker
    never drifts onto a different failure.  A traced shrink counts the
    steps taken from checkpoints in ``fuzz.shrink_resumed_steps``.
    """
    tracer = current_tracer()
    checkpoints = Checkpoints()
    watched = prefix_scoped(oracle_name, config)

    def violates(candidate: Sequence[Action]) -> bool:
        watch = PrefixWatch(system, oracle_name) if watched else None
        result = execute_script(
            system, candidate, subseeds, config, watch, checkpoints
        )
        if tracer.enabled:
            tracer.count("fuzz.shrink_resumed_steps", result.resumed)
        if watch is not None:
            return watch.violated
        return bool(check_execution(system, result, config, target=oracle_name))

    return shrink_search(system, actions, oracle_name, config, violates)


def shrink_search(
    system: DataLinkSystem,
    actions: Sequence[Action],
    oracle_name: str,
    config: FuzzConfig,
    violates: Callable[[Sequence[Action]], bool],
) -> ShrinkResult:
    """The deletion search around one candidate verdict.

    ``violates`` executes an admissible candidate and tells whether
    the target oracle fires; the search memoizes its verdicts, skips
    inadmissible candidates and stops calling it once
    ``config.shrink_budget`` calls were made.
    """
    tracer = current_tracer()
    attempts = 0
    budget = config.shrink_budget
    verdicts: Dict[Tuple[Action, ...], bool] = {}

    def still_violates(candidate: Sequence[Action]) -> bool:
        nonlocal attempts
        key = tuple(candidate)
        cached: Optional[bool] = verdicts.get(key)
        if cached is not None:
            return cached
        if attempts >= budget:
            # Not cached: a budget refusal says nothing about the
            # candidate itself.
            return False
        if not script_admissible(candidate, system.t, system.r):
            verdicts[key] = False
            return False
        attempts += 1
        if tracer.enabled:
            tracer.count("fuzz.shrink_executions")
        verdict = verdicts[key] = violates(key)
        return verdict

    current: List[Action] = list(actions)
    rounds = 0
    with tracer.span(
        "fuzz.shrink", oracle=oracle_name, original=len(current)
    ):
        while attempts < budget:
            rounds += 1
            before = len(current)
            current = _ddmin_pass(current, still_violates)
            current = _deletion_pass(current, still_violates, width=1)
            current = _deletion_pass(current, still_violates, width=2)
            if len(current) == before:
                break
        if tracer.enabled:
            tracer.count("fuzz.shrink_rounds", rounds)
    return ShrinkResult(
        actions=tuple(current),
        original_length=len(actions),
        attempts=attempts,
        rounds=rounds,
        budget_exhausted=attempts >= budget,
    )


Predicate = Callable[[Sequence[Action]], bool]


def _ddmin_pass(actions: List[Action], keep: Predicate) -> List[Action]:
    """One delta-debugging sweep: delete coarse-to-fine chunks."""
    current = actions
    granularity = 2
    while len(current) >= 2:
        chunk = max(1, len(current) // granularity)
        deleted_any = False
        start = 0
        while start < len(current):
            candidate = current[:start] + current[start + chunk :]
            if candidate and keep(candidate):
                current = candidate
                deleted_any = True
                # Same start now addresses the next chunk.
            else:
                start += chunk
        if deleted_any:
            granularity = max(granularity - 1, 2)
        elif chunk == 1:
            break
        else:
            granularity = min(granularity * 2, len(current))
    return current


def _deletion_pass(
    actions: List[Action], keep: Predicate, width: int
) -> List[Action]:
    """Try deleting every window of ``width`` actions, back to front."""
    current = actions
    index = len(current) - width
    while index >= 0:
        candidate = current[:index] + current[index + width :]
        if candidate and keep(candidate):
            current = candidate
        index -= 1
    return current

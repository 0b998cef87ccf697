"""Checkpointed shrinking against full re-execution.

The shrinker resumes each candidate from the deepest input boundary an
earlier candidate of the same shrink executed, and stops a prefix-scope
target's run at its first violating event.  The reference in
``tests/conformance/reference_shrink.py`` re-executes every candidate
from the initial state, drains it and checks it whole.  Both shrink
the same violations of ``naive`` over ``nonfifo`` (three campaigns,
every distinct violated oracle of every run) and must agree on every
result.  The violations are found and the station tables warmed
outside the timing; the two sides then interleave seven trials each and
compare their best.  Each trial is timed in process CPU time, which
another process on the box does not inflate.  A ratio timed in one
process holds across runner hardware, where absolute times do not.
Beside it, a count guard needs no clock: the fair kernel's steps over
the same shrinks.  Run from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/bench_shrink.py --benchmark-disable -q
"""

from __future__ import annotations

import gc
import random
import time

from repro.conformance import (
    FuzzConfig,
    SubSeeds,
    build_script,
    build_system,
    check_execution,
    execute_script,
    shrink_script,
)
from repro.conformance.harness import resolve_pair
from repro.ioa.composition import ComponentSlices
from tests.conformance.reference_shrink import reference_shrink

PROTOCOL, CHANNEL, SEEDS, RUNS = "naive", "nonfifo", (11, 12, 13), 20

#: Best-of-7 CPU-time ratios read 1.03-1.27 on a 2-vCPU x86-64 box,
#: and 4 of 38 runs fell below the floor: the property's own margin,
#: 1.10-1.15 from one process to the next, sits just above it.  A
#: shrinker that stops at the first violation but no longer resumes
#: reads below the floor.
SHRINK_SPEEDUP_FLOOR = 1.1
TRIALS = 7

#: Kernel steps (``ComponentSlices.advance`` calls) over the same shrinks
#: read 52,027 for the reference against 38,355 checkpointed (1.36); a
#: shrinker that stops at the first violation but no longer resumes
#: takes 49,061 (1.06).  Counts do not vary between runs or runners.
SHRINK_STEP_FLOOR = 1.2


def _violations(config):
    """(system, script, oracle, sub-seeds) for every shrink the
    campaigns would run."""
    jobs = []
    for seed in SEEDS:
        master = random.Random(seed)
        resolved = resolve_pair(PROTOCOL, CHANNEL)
        for _ in range(RUNS):
            subseeds = SubSeeds.derive(master)
            system = build_system(
                PROTOCOL, CHANNEL, subseeds, config, resolved=resolved
            )
            script = build_script(system, subseeds, config)
            result = execute_script(system, script.actions, subseeds, config)
            found = check_execution(system, result, config)
            for oracle in dict.fromkeys(v.oracle for v in found):
                jobs.append((system, script.actions, oracle, subseeds))
    return jobs


def _trial(shrink, jobs, config):
    """CPU time to shrink every job, and the results."""
    gc.collect()
    gc.disable()
    try:
        started = time.process_time()
        results = [shrink(*job, config) for job in jobs]
        elapsed = time.process_time() - started
    finally:
        gc.enable()
    return elapsed, [
        (r.actions, r.attempts, r.rounds, r.budget_exhausted) for r in results
    ]


def test_checkpointed_shrink_outpaces_the_reference():
    config = FuzzConfig()
    jobs = _violations(config)
    assert jobs
    _trial(reference_shrink, jobs, config)  # fills the station tables
    # Interleaved trials, so a busy spell on the box hits both sides.
    checkpointed, reference = [], []
    for _ in range(TRIALS):
        checkpointed.append(_trial(shrink_script, jobs, config))
        reference.append(_trial(reference_shrink, jobs, config))
    assert all(found == reference[0][1] for _, found in checkpointed + reference)
    best_checkpointed = min(elapsed for elapsed, _ in checkpointed)
    best_reference = min(elapsed for elapsed, _ in reference)
    ratio = best_reference / best_checkpointed
    assert ratio >= SHRINK_SPEEDUP_FLOOR, (
        ratio,
        best_reference,
        best_checkpointed,
    )


def test_checkpointed_shrink_takes_fewer_kernel_steps(monkeypatch):
    config = FuzzConfig()
    jobs = _violations(config)
    assert jobs
    advance = ComponentSlices.advance
    steps = [0]

    def counted(view, state, action):
        steps[0] += 1
        return advance(view, state, action)

    monkeypatch.setattr(ComponentSlices, "advance", counted)
    counts, found = [], []
    for shrink in (reference_shrink, shrink_script):
        steps[0] = 0
        results = [shrink(*job, config) for job in jobs]
        counts.append(steps[0])
        found.append([(r.actions, r.attempts, r.rounds) for r in results])
    assert found[0] == found[1]
    reference, checkpointed = counts
    assert reference / checkpointed >= SHRINK_STEP_FLOOR, counts

"""Checkpointed shrinking against full re-execution.

The shrinker resumes each candidate from the deepest input boundary an
earlier candidate of the same shrink executed, and stops a prefix-scope
target's run at its first violating event.  The reference in
``tests/conformance/reference_shrink.py`` re-executes every candidate
from the initial state, drains it and checks it whole.  Both shrink
the same violations of ``naive`` over ``nonfifo`` (three campaigns,
every distinct violated oracle of every run) and must agree on every
result.  The violations are found and the station tables warmed
outside the timing; the two sides then interleave five trials each and
compare their best.  A ratio timed in one process holds across runner
hardware, where absolute times do not.  Run from the repository root::

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
from tests.conformance.reference_shrink import reference_shrink

PROTOCOL, CHANNEL, SEEDS, RUNS = "naive", "nonfifo", (11, 12, 13), 20

#: Best-of-5 ratios read 1.17-1.30 over six runs on a 2-vCPU x86-64 box.
#: The floor leaves room for a loaded runner, and a shrinker that stops
#: at the first violation but no longer resumes reads below it.
SHRINK_SPEEDUP_FLOOR = 1.1


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
    """Time to shrink every job, and the results."""
    gc.collect()
    gc.disable()
    try:
        started = time.perf_counter()
        results = [shrink(*job, config) for job in jobs]
        elapsed = time.perf_counter() - started
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
    for _ in range(5):
        checkpointed.append(_trial(shrink_script, jobs, config))
        reference.append(_trial(reference_shrink, jobs, config))
    assert all(found == reference[0][1] for _, found in checkpointed + reference)
    best_checkpointed = min(elapsed for elapsed, _ in checkpointed)
    best_reference = min(elapsed for elapsed, _ in reference)
    assert best_reference / best_checkpointed >= SHRINK_SPEEDUP_FLOOR, (
        best_reference,
        best_checkpointed,
    )

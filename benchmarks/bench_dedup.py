"""Coverage dedup against the field-hash reference.

A fuzz campaign's master dedups every visited state: one
``distinct_states`` pass per run, then one ``InternTable.intern`` per
distinct state.  A delivery set hashes a window of its first slots,
so dedup never draws a seeded set's rest, and ``intern`` probes once.
The reference in ``tests/conformance/reference_dedup.py`` hashes every
field, which draws each seeded set in full, and interns with a probe
plus a store.  Each trial rebuilds the runs outside the timing under
its own hash, so every trial starts from undrawn sets; the two sides
interleave five trials each and compare their best.  A ratio timed
in one process holds across runner hardware, where absolute times do
not.  Run from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/bench_dedup.py --benchmark-disable -q
"""

from __future__ import annotations

import gc
import random
import time
from contextlib import nullcontext

from repro.conformance import (
    FuzzConfig,
    SubSeeds,
    build_script,
    build_system,
    execute_script,
)
from repro.conformance.harness import resolve_pair
from repro.ioa.engine import InternTable
from tests.conformance import reference_dedup as reference

PROTOCOL, CHANNEL, SEED, RUNS = "alternating_bit", "fifo", 11, 100

#: About 3x on a 2-vCPU x86-64 box; the floor leaves room for a loaded
#: runner.
DEDUP_SPEEDUP_FLOOR = 2.0


def _results():
    config = FuzzConfig()
    master = random.Random(SEED)
    resolved = resolve_pair(PROTOCOL, CHANNEL)
    results = []
    for _ in range(RUNS):
        subseeds = SubSeeds.derive(master)
        system = build_system(
            PROTOCOL, CHANNEL, subseeds, config, resolved=resolved
        )
        script = build_script(system, subseeds, config)
        results.append(
            execute_script(system, script.actions, subseeds, config)
        )
    return results


def _trial(hashing, table_type):
    """Dedup time over freshly built runs, and the interned count."""
    with hashing():
        results = _results()
        table = table_type()
        # As ``timeit`` does: a collection the build left due would land
        # in whichever loop allocates next.
        gc.collect()
        gc.disable()
        try:
            started = time.perf_counter()
            for result in results:
                for state in result.distinct_states():
                    table.intern(state)
            elapsed = time.perf_counter() - started
        finally:
            gc.enable()
    return elapsed, len(table)


def test_window_hash_dedup_outpaces_the_reference():
    # Interleaved trials, so a busy spell on the box hits both sides.
    window, fields = [], []
    for _ in range(5):
        window.append(_trial(nullcontext, InternTable))
        fields.append(
            _trial(reference.field_hashed_sets, reference.ReferenceInternTable)
        )
    assert {count for _, count in window} == {count for _, count in fields}
    best_window, best_fields = min(window)[0], min(fields)[0]
    assert best_fields / best_window >= DEDUP_SPEEDUP_FLOOR, (
        best_fields,
        best_window,
    )

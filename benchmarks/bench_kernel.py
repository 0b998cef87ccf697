"""The fair kernel against the loop it replaced, on warm load sessions.

The kernel keeps each slot's task groups between steps and steps a
station by its slice id in the station's table; the reference in
``tests/ioa/test_fair_kernel.py`` (``reference_run_to_quiescence``)
re-enumerates every component and steps the whole composition through
its ``transitions`` relation on every step.  Script inputs take
``Automaton.step``, the kernel's view, on both sides.  The sessions
are ``load-dropflood``'s: 200 ``alternating_bit`` sessions over
``nonfifo`` under the drop-flood mix, all sharing one
``resolve_pair``, so once a first pass has filled the station tables
every station step is answered from them.  Each trial runs every
session once, its fair runs on one side or the other, and both sides
must produce equal fragments.  The sides interleave five trials each
and compare their best.  A ratio timed in one process holds across
runner hardware, where absolute times do not.  Beside it, a count guard
needs no clock: over one warm pass of the same sessions, the
components' ``enabled_local_actions`` calls per kernel step
(``ComponentSlices.advance`` call).  Run from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/bench_kernel.py --benchmark-disable -q
"""

from __future__ import annotations

import gc
import random
import time

from repro.conformance import SubSeeds
from repro.conformance.harness import resolve_pair
from repro.ioa.composition import ComponentSlices
from repro.ioa.fairness import run_to_quiescence
from repro.sim import Session
from repro.sim import session as session_module
from repro.sim.load import LoadConfig, _fuzz_config, with_load_mix
from tests.ioa.test_fair_kernel import reference_run_to_quiescence

PROTOCOL, CHANNEL, SEED = "alternating_bit", "nonfifo", 11
LOAD = with_load_mix(LoadConfig(sessions=200, messages=4), "drop-flood")

#: Best-of-5 ratios read 2.14-2.19 over six runs on a 2-vCPU x86-64
#: box.  The floor leaves room for a loaded runner, and a kernel that
#: hashes each station slice per step again (1.52-1.55 there) fails it.
KERNEL_SPEEDUP_FLOOR = 1.8

#: Component enumerations per kernel step on the warm sessions read
#: 12,490 / 14,309 = 0.873: a warm station is enumerated only on a table
#: miss, a channel only when its slice changed.  A kernel that
#: re-enumerates every slot after each step reads 2.873.  Counts do not
#: vary between runs or runners.
ENUMERATIONS_PER_STEP_CEILING = 1.5


def _sessions():
    config = _fuzz_config(LOAD)
    resolved = resolve_pair(PROTOCOL, CHANNEL)
    master = random.Random(SEED)
    return [
        Session.from_spec(
            PROTOCOL, CHANNEL, SubSeeds.derive(master), config, resolved=resolved
        )
        for _ in range(LOAD.sessions)
    ]


def _trial(kernel, sessions):
    """Time to run every session with ``kernel`` as the fair executor,
    and the fragments."""
    session_module.run_to_quiescence = kernel
    gc.collect()
    gc.disable()
    try:
        started = time.perf_counter()
        results = [session.run() for session in sessions]
        elapsed = time.perf_counter() - started
    finally:
        gc.enable()
        session_module.run_to_quiescence = run_to_quiescence
    return elapsed, [result.fragment for result in results]


def test_kernel_outpaces_the_reference():
    sessions = _sessions()
    _trial(run_to_quiescence, sessions)  # fills the station tables
    # Interleaved trials, so a busy spell on the box hits both sides.
    kernel, reference = [], []
    for _ in range(5):
        kernel.append(_trial(run_to_quiescence, sessions))
        reference.append(_trial(reference_run_to_quiescence, sessions))
    assert all(found == kernel[0][1] for _, found in kernel + reference)
    best_kernel = min(elapsed for elapsed, _ in kernel)
    best_reference = min(elapsed for elapsed, _ in reference)
    assert best_reference / best_kernel >= KERNEL_SPEEDUP_FLOOR, (
        best_reference,
        best_kernel,
    )


def test_kernel_enumerates_only_replaced_slices(monkeypatch):
    sessions = _sessions()
    _trial(run_to_quiescence, sessions)  # fills the station tables
    counts = {"advance": 0, "enumerate": 0}
    advance = ComponentSlices.advance

    def counted_advance(view, state, action):
        counts["advance"] += 1
        return advance(view, state, action)

    def counted(component):
        enumerate_actions = component.enabled_local_actions

        def enabled_local_actions(piece):
            counts["enumerate"] += 1
            return enumerate_actions(piece)

        return enabled_local_actions

    monkeypatch.setattr(ComponentSlices, "advance", counted_advance)
    components = {
        id(component): component
        for session in sessions
        for component in session.system.composition.components
    }
    for component in components.values():
        # A tabled station is enumerated through its ghost-free twin.
        if component.table is not None:
            component = component.table.automaton
        monkeypatch.setattr(
            component, "enabled_local_actions", counted(component)
        )
    for session in sessions:
        session.run()
    assert counts["advance"]
    ratio = counts["enumerate"] / counts["advance"]
    assert ratio <= ENUMERATIONS_PER_STEP_CEILING, counts

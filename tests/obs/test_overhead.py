"""Tracing-off must stay a no-op on the exploration hot path.

The engines instrument at layer granularity behind ``tracer.enabled``
checks, so a run with the disabled default tracer should do no event
work at all.  This smoke test asserts the structural half (nothing is
recorded, no memo-counting shim is installed) and a generous timing
half: the tracing-off run must not be slower than the traced run by
more than the stated margin (the no-op path does strictly less work, so
this only trips when someone puts real work on the disabled path).
The off and on runs alternate inside one loop, so drift of a shared
machine hits both sides alike, and each side keeps its minimum.
"""

from __future__ import annotations

import time

from repro.obs import MemorySink, current_tracer, tracing

REPEATS = 15
MARGIN = 1.10  # tracing-off may not exceed traced time by >10%


def build():
    from repro.analysis.model_check import build_closed_system
    from repro.protocols import alternating_bit_protocol

    composition, invariant, _ = build_closed_system(
        alternating_bit_protocol(), messages=2, capacity=2
    )
    return composition, invariant


def best_times(*runs):
    """Each run's minimum wall time over REPEATS interleaved rounds."""
    best = [float("inf")] * len(runs)
    for _ in range(REPEATS):
        for slot, run in enumerate(runs):
            started = time.perf_counter()
            run()
            best[slot] = min(best[slot], time.perf_counter() - started)
    return best


class TestNoOpOverhead:
    def test_disabled_run_records_nothing(self):
        from repro.ioa import explore

        composition, invariant = build()
        tracer = current_tracer()
        assert not tracer.enabled
        before = dict(tracer.counters)
        explore(composition, invariant=invariant)
        assert tracer.counters == before

    def test_disabled_run_installs_no_memo_shim(self, monkeypatch):
        from repro.analysis.model_check import build_closed_system
        from repro.ioa.engine import core
        from repro.ioa.engine.interning import SliceTable
        from repro.protocols import alternating_bit_protocol

        spaces = []

        class Recorded(core._Encoded):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                spaces.append(self)

        monkeypatch.setattr(core, "_Encoded", Recorded)
        composition, invariant, _ = build_closed_system(
            alternating_bit_protocol(), messages=1, capacity=1
        )
        core.explore_engine(composition, invariant=invariant)
        with tracing(MemorySink()):
            core.explore_engine(composition, invariant=invariant)
        untraced, traced = spaces
        # Untraced, the search steps straight through the slice tables;
        # the traced run shows the check can tell the shim apart.
        assert untraced.successors is SliceTable.successors
        assert untraced.memo_queries == 0
        assert traced.successors is not SliceTable.successors
        assert traced.memo_queries > 0

    def test_tracing_off_not_slower_than_traced(self):
        from repro.ioa import explore

        composition, invariant = build()

        def run_off():
            explore(composition, invariant=invariant)

        def run_on():
            with tracing(MemorySink()):
                explore(composition, invariant=invariant)

        # Warm both paths once before timing.
        run_off()
        run_on()
        off, on = best_times(run_off, run_on)
        assert off <= on * MARGIN, (
            f"tracing-off explore took {off:.6f}s vs traced {on:.6f}s; "
            "the disabled path is doing real work"
        )

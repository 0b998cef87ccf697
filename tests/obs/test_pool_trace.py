"""Trace timing of the process pool's items.

The pool captures each item's events where the item ran -- in-process
or in a forked worker -- and the master replays the chunks in index
order (:meth:`~repro.obs.Tracer.absorb`).  These tests pin what that
buys: every replayed span keeps its recorded width and lies within its
parent, each item span contains its own work, serial and pooled
streams agree even when an item fails, and a timed-out item neither
loses its partial events nor leaves its capture tracer installed.
"""

from __future__ import annotations

import random
import time
from collections import defaultdict

import pytest

from repro.conformance import FuzzConfig, fuzz_campaign, pool
from repro.conformance.harness import SubSeeds
from repro.obs import MemorySink, current_tracer, tracing
from repro.obs.events import SPAN_END, SPAN_START
from repro.sim.load import LoadConfig, run_load
from repro.sim.session import Session


def _fuzz(workers):
    fuzz_campaign(
        "alternating_bit", "fifo", 3, FuzzConfig(runs=6), workers=workers
    )


def _load(workers):
    run_load(
        "alternating_bit", "fifo", 0, LoadConfig(sessions=8), workers=workers
    )


#: workload -> (run, item span, failure counter)
WORKLOADS = {
    "fuzz": (_fuzz, "fuzz.run", "fuzz.pool.failures"),
    "load": (_load, "load.session", "load.failed_sessions"),
}


def _traced(run, workers):
    sink = MemorySink()
    with tracing(sink):
        run(workers)
    return sink.events


def _spans(events):
    """``{span id: (start event, end event)}``."""
    starts = {e.span: e for e in events if e.kind == SPAN_START}
    ends = {e.span: e for e in events if e.kind == SPAN_END}
    assert starts.keys() == ends.keys()
    return {span: (starts[span], ends[span]) for span in starts}


def _normalized(events):
    return [
        (
            event.kind,
            event.name,
            event.span,
            event.parent,
            tuple(sorted(event.fields.items())),
            event.value if event.kind in ("counter", "gauge") else None,
        )
        for event in events
    ]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
class TestSpanTiming:
    def test_every_span_lies_within_its_parent(self, workload, workers):
        run = WORKLOADS[workload][0]
        spans = _spans(_traced(run, workers))
        for start, end in spans.values():
            if start.parent is None:
                continue
            parent_start, parent_end = spans[start.parent]
            assert parent_start.at <= start.at, start
            assert end.at <= parent_end.at, end

    def test_every_span_is_as_wide_as_its_duration(self, workload, workers):
        run = WORKLOADS[workload][0]
        for start, end in _spans(_traced(run, workers)).values():
            assert end.at - start.at == pytest.approx(end.value, abs=1e-6)

    def test_item_spans_contain_their_children(self, workload, workers):
        run, item, _ = WORKLOADS[workload]
        spans = _spans(_traced(run, workers))
        children = defaultdict(float)
        for start, end in spans.values():
            if start.parent is not None:
                children[start.parent] += end.value
        items = [
            span for span, (start, _) in spans.items() if start.name == item
        ]
        assert items
        for span in items:
            assert children[span] > 0, "item span holds none of its work"
            assert spans[span][1].value >= children[span]


def _doomed_fuzz(monkeypatch, doomed):
    real = pool.execute_script

    def failing(system, actions, subseeds, config):
        result = real(system, actions, subseeds, config)
        if subseeds == doomed:
            raise RuntimeError("injected failure after the scenario")
        return result

    monkeypatch.setattr(pool, "execute_script", failing)
    return _fuzz


def _doomed_load(monkeypatch, doomed):
    real = Session.run

    def failing(self):
        result = real(self)
        if self.seed == doomed.interleave:
            raise RuntimeError("injected failure after the scenario")
        return result

    monkeypatch.setattr(Session, "run", failing)
    return _load


@pytest.mark.parametrize(
    "workload,seed,doom",
    [("fuzz", 3, _doomed_fuzz), ("load", 0, _doomed_load)],
)
def test_failed_item_keeps_its_partial_span_in_both_streams(
    monkeypatch, workload, seed, doom
):
    """A raising item's partial span -- its own span and the scenario
    that ran before the failure -- is replayed identically whether the
    schedule ran serially or on a fork pool (which inherits the patch).
    """
    master = random.Random(seed)
    schedule = [SubSeeds.derive(master) for _ in range(3)]
    run = doom(monkeypatch, schedule[2])
    _, item, failures = WORKLOADS[workload]

    serial = _traced(run, 1)
    pooled = _traced(run, 2)
    assert _normalized(serial) == _normalized(pooled)
    assert [e.name for e in serial].count(failures) == 1

    spans = _spans(serial)
    (failed,) = [
        span
        for span, (start, _) in spans.items()
        if start.name == item and start.fields["index"] == 2
    ]
    nested = {
        start.name for start, _ in spans.values() if start.parent == failed
    }
    assert "sim.scenario" in nested


def test_timed_out_item_keeps_its_events_and_restores_the_tracer():
    def slow(index, subseeds, resolved):
        with current_tracer().span("slow.item", index=index):
            time.sleep(30)

    subseeds = SubSeeds.derive(random.Random(0))
    with tracing(MemorySink()) as tracer:
        (outcome,) = pool.run_batch(
            slow, pool.Outcome, 0, [subseeds], run_timeout=0.2
        )
        assert current_tracer() is tracer
    assert outcome.timed_out
    assert [(e.kind, e.name) for e in outcome.events] == [
        (SPAN_START, "slow.item"),
        (SPAN_END, "slow.item"),
    ]

"""Tracer semantics: spans, counters, gauges, and the disabled default."""

from __future__ import annotations

import pytest

from repro.obs import (
    COUNTER,
    SPAN_END,
    SPAN_START,
    Event,
    MemorySink,
    Tracer,
    current_tracer,
    set_tracer,
    tracing,
)
from repro.obs.tracer import _NOOP_SPAN


class TestDisabledDefault:
    def test_process_default_is_disabled(self):
        assert current_tracer().enabled is False

    def test_disabled_span_is_shared_noop(self):
        tracer = Tracer(enabled=False)
        assert tracer.span("x") is _NOOP_SPAN
        assert tracer.span("y", depth=3) is _NOOP_SPAN
        with tracer.span("x"):
            pass  # enters and exits cleanly

    def test_disabled_tracer_records_nothing(self):
        sink = MemorySink()
        tracer = Tracer(sinks=[sink], enabled=False)
        tracer.count("a", 3)
        tracer.gauge("b", 1.5)
        tracer.point("c")
        assert sink.events == ()
        assert tracer.counters == {}
        assert tracer.gauges == {}


class TestSpans:
    def test_span_events_pair_and_nest(self):
        sink = MemorySink()
        tracer = Tracer(sinks=[sink])
        with tracer.span("outer", depth=0):
            with tracer.span("inner"):
                pass
        kinds = [(event.kind, event.name) for event in sink.events]
        assert kinds == [
            (SPAN_START, "outer"),
            (SPAN_START, "inner"),
            (SPAN_END, "inner"),
            (SPAN_END, "outer"),
        ]
        outer_start, inner_start, inner_end, outer_end = sink.events
        assert inner_start.parent == outer_start.span
        assert inner_end.span == inner_start.span
        assert outer_start.fields == {"depth": 0}
        assert outer_end.value >= inner_end.value >= 0

    def test_end_span_requires_innermost(self):
        tracer = Tracer()
        outer = tracer.start_span("outer")
        tracer.start_span("inner")
        with pytest.raises(RuntimeError):
            tracer.end_span(outer)

    def test_counter_inside_span_links_to_it(self):
        sink = MemorySink()
        tracer = Tracer(sinks=[sink])
        with tracer.span("work") as span_id:
            tracer.count("items", 2)
        counter = next(e for e in sink.events if e.kind == COUNTER)
        assert counter.parent == span_id


class TestCountersAndGauges:
    def test_counters_accumulate(self):
        tracer = Tracer()
        tracer.count("x")
        tracer.count("x", 4)
        tracer.count("y", 2.5)
        assert tracer.counters == {"x": 5, "y": 2.5}

    def test_zero_increment_is_a_noop(self):
        sink = MemorySink()
        tracer = Tracer(sinks=[sink])
        tracer.count("x", 0)
        assert sink.events == ()
        assert "x" not in tracer.counters

    def test_gauges_keep_last_value(self):
        tracer = Tracer()
        tracer.gauge("frontier", 10)
        tracer.gauge("frontier", 3)
        assert tracer.gauges == {"frontier": 3}

    def test_snapshot_counters_sorted_and_integral(self):
        tracer = Tracer()
        tracer.count("b", 2.0)
        tracer.count("a", 1.5)
        snapshot = tracer.snapshot_counters()
        assert list(snapshot) == ["a", "b"]
        assert snapshot["b"] == 2 and isinstance(snapshot["b"], int)
        assert snapshot["a"] == 1.5


class TestInstallation:
    def test_set_tracer_returns_previous(self):
        mine = Tracer()
        previous = set_tracer(mine)
        try:
            assert current_tracer() is mine
        finally:
            set_tracer(previous)
        assert current_tracer() is previous

    def test_set_tracer_none_restores_disabled_default(self):
        previous = set_tracer(Tracer())
        set_tracer(None)
        assert current_tracer().enabled is False
        set_tracer(previous)

    def test_tracing_installs_and_restores(self):
        before = current_tracer()
        with tracing(MemorySink()) as tracer:
            assert current_tracer() is tracer
            assert tracer.enabled
        assert current_tracer() is before

    def test_tracing_restores_on_exception(self):
        before = current_tracer()
        with pytest.raises(RuntimeError):
            with tracing():
                raise RuntimeError("boom")
        assert current_tracer() is before


class TestAbsorb:
    """Replaying captured event chunks into another tracer."""

    def _capture(self):
        sink = MemorySink()
        with tracing(sink) as tracer:
            with tracer.span("work", step=1):
                tracer.count("items", 3)
            tracer.gauge("level", 0.5)
        return sink.events

    def test_absorb_remaps_span_ids_onto_own_counter(self):
        events = self._capture()
        sink = MemorySink()
        master = Tracer(sinks=[sink])
        master.start_span("warmup")  # claims span id 0
        master.end_span(0)
        master.absorb(events)
        replayed = [e for e in sink.events if e.name == "work"]
        assert [e.span for e in replayed] == [1, 1]
        assert master._next_span == 2

    def test_absorb_rehomes_top_level_parents_to_open_span(self):
        events = self._capture()
        sink = MemorySink()
        master = Tracer(sinks=[sink])
        with master.span("fuzz.run"):
            master.absorb(events)
        work_start = next(
            e for e in sink.events
            if e.kind == SPAN_START and e.name == "work"
        )
        counter = next(e for e in sink.events if e.name == "items")
        assert work_start.parent == 0  # the open fuzz.run span
        assert counter.parent == work_start.span  # nesting preserved

    def test_absorb_folds_counter_and_gauge_totals(self):
        events = self._capture()
        master = Tracer(sinks=[MemorySink()])
        master.count("items", 1)
        master.absorb(events)
        assert master.counters["items"] == 4
        assert master.gauges["level"] == 0.5

    def test_absorb_keeps_the_chunk_spacing(self):
        chunk = (
            Event(SPAN_START, "work", 1.0, span=0),
            Event(COUNTER, "items", 1.5, value=3, parent=0),
            Event(SPAN_END, "work", 3.0, value=2.0, span=0),
        )
        sink = MemorySink()
        master = Tracer(sinks=[sink])
        before = master._now()
        master.absorb(chunk)
        after = master._now()
        start, counter, end = sink.events
        assert counter.at - start.at == pytest.approx(0.5)
        assert end.at - start.at == pytest.approx(end.value)
        # Shifted so the chunk's last event lands at the replay time.
        assert before <= end.at <= after

    def test_absorb_on_disabled_tracer_is_a_noop(self):
        events = self._capture()
        sink = MemorySink()
        tracer = Tracer(sinks=[sink], enabled=False)
        tracer.absorb(events)
        assert sink.events == ()
        assert tracer.counters == {}

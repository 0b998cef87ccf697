"""The process-wide tracer.

A :class:`Tracer` turns instrumentation calls into
:class:`~repro.obs.events.Event` records, fans them out to its sinks,
and keeps running counter totals / last-gauge values so a manifest or
:class:`~repro.obs.report.RunReport` can summarize the run without
replaying the stream.

The module-level current tracer defaults to a **disabled** instance.
Instrumentation sites are written as::

    tracer = current_tracer()
    ...
    if tracer.enabled:
        tracer.count("explore.transitions", fired)

so a tracing-off run pays one attribute check per instrumented region
-- the engines instrument at layer/round granularity, never per state,
which is what keeps the no-op overhead inside the benchmark's noise
floor (see ``tests/obs/test_overhead.py``).

Spans nest via an explicit stack::

    with tracer.span("explore.layer", depth=3, width=128):
        ...

``span`` on a disabled tracer returns a shared no-op context manager,
so it is safe (and cheap) to use unconditionally outside hot loops.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .events import (
    COUNTER,
    GAUGE,
    POINT,
    SPAN_END,
    SPAN_START,
    Event,
)
from .sinks import Sink


class _NoopSpan:
    """Context manager handed out by disabled tracers."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info) -> None:
        return None


_NOOP_SPAN = _NoopSpan()


class Tracer:
    """Event emitter with pluggable sinks and aggregate totals."""

    def __init__(self, sinks: Sequence[Sink] = (), enabled: bool = True):
        self.enabled = enabled
        self.sinks: List[Sink] = list(sinks)
        self._epoch = time.perf_counter()
        self._next_span = 0
        # (span id, name, start time) innermost-last.
        self._stack: List[Tuple[int, str, float]] = []
        self.counters: Dict[str, float] = {}
        self.gauges: Dict[str, float] = {}

    # -- plumbing -------------------------------------------------------

    def _now(self) -> float:
        return time.perf_counter() - self._epoch

    def _emit(self, event: Event) -> None:
        for sink in self.sinks:
            sink.emit(event)

    def emit(self, event: Event) -> None:
        """Emit a pre-built event (used by the manifest writer)."""
        if self.enabled:
            self._emit(event)

    # -- spans ----------------------------------------------------------

    def start_span(self, name: str, **fields) -> int:
        """Open a span; returns its id.  Prefer :meth:`span`."""
        span_id = self._next_span
        self._next_span += 1
        parent = self._stack[-1][0] if self._stack else None
        started = self._now()
        self._stack.append((span_id, name, started))
        self._emit(
            Event(
                SPAN_START,
                name,
                started,
                span=span_id,
                parent=parent,
                fields=fields,
            )
        )
        return span_id

    def end_span(self, span_id: int, **fields) -> None:
        """Close the innermost span (``span_id`` must match it)."""
        if not self._stack or self._stack[-1][0] != span_id:
            raise RuntimeError(
                f"span {span_id} is not the innermost open span"
            )
        _, name, started = self._stack.pop()
        ended = self._now()
        parent = self._stack[-1][0] if self._stack else None
        self._emit(
            Event(
                SPAN_END,
                name,
                ended,
                value=ended - started,
                span=span_id,
                parent=parent,
                fields=fields,
            )
        )

    def span(self, name: str, **fields):
        """Context manager for a named span; no-op when disabled."""
        if not self.enabled:
            return _NOOP_SPAN
        return self._span_cm(name, fields)

    @contextmanager
    def _span_cm(self, name: str, fields: Dict) -> Iterator[int]:
        span_id = self.start_span(name, **fields)
        try:
            yield span_id
        finally:
            self.end_span(span_id)

    # -- counters / gauges / points ------------------------------------

    def count(self, name: str, n: float = 1, **fields) -> None:
        if not self.enabled or n == 0:
            return
        self.counters[name] = self.counters.get(name, 0) + n
        parent = self._stack[-1][0] if self._stack else None
        self._emit(
            Event(COUNTER, name, self._now(), value=n, parent=parent,
                  fields=fields)
        )

    def gauge(self, name: str, value: float, **fields) -> None:
        if not self.enabled:
            return
        self.gauges[name] = value
        parent = self._stack[-1][0] if self._stack else None
        self._emit(
            Event(GAUGE, name, self._now(), value=value, parent=parent,
                  fields=fields)
        )

    def point(self, name: str, **fields) -> None:
        if not self.enabled:
            return
        parent = self._stack[-1][0] if self._stack else None
        self._emit(
            Event(POINT, name, self._now(), parent=parent, fields=fields)
        )

    # -- event replay ---------------------------------------------------

    def absorb(self, events: Sequence[Event]) -> None:
        """Re-emit events captured by another tracer as if they were ours.

        The fuzz pool runs work in forked workers, each capturing its
        event stream into a :class:`~repro.obs.sinks.MemorySink` under a
        fresh tracer whose span ids start at 0.  Batched pooling ships
        those chunks per *batch* of runs; the master replays each run's
        chunks in run-index order -- a deterministic order -- so the
        merged stream is identical to a serial run's: span ids are
        remapped onto this tracer's counter in arrival order (exactly
        the ids a serial run would have allocated), chunk-top-level
        parents are re-homed onto the currently open span, timestamps
        are re-stamped against this tracer's epoch, and counter/gauge
        totals are folded into the running aggregates so manifests and
        reports see them.  Empty chunks (the common case whenever a
        captured region emitted nothing) return without allocating.
        """
        if not self.enabled or not events:
            return
        mapping: Dict[int, int] = {}
        for event in events:
            span = event.span
            if event.kind == SPAN_START and span is not None:
                mapping[span] = self._next_span
                self._next_span += 1
            new_span = mapping.get(span) if span is not None else None
            if event.parent is not None and event.parent in mapping:
                new_parent: Optional[int] = mapping[event.parent]
            else:
                new_parent = self._stack[-1][0] if self._stack else None
            if event.kind == COUNTER and event.value:
                self.counters[event.name] = (
                    self.counters.get(event.name, 0) + event.value
                )
            elif event.kind == GAUGE and event.value is not None:
                self.gauges[event.name] = event.value
            self._emit(
                Event(
                    event.kind,
                    event.name,
                    self._now(),
                    value=event.value,
                    span=new_span,
                    parent=new_parent,
                    fields=event.fields,
                )
            )

    # -- totals ---------------------------------------------------------

    def snapshot_counters(self) -> Dict[str, float]:
        """Counter totals so far (ints where the math stayed integral)."""
        return {
            name: int(total) if float(total).is_integer() else total
            for name, total in sorted(self.counters.items())
        }

    def close(self) -> None:
        for sink in self.sinks:
            sink.close()


#: The disabled default: instrumentation finds this when no one traces.
_DISABLED = Tracer(enabled=False)
_CURRENT: Tracer = _DISABLED


def current_tracer() -> Tracer:
    """The process-wide tracer (disabled unless someone installed one)."""
    return _CURRENT


def set_tracer(tracer: Optional[Tracer]) -> Tracer:
    """Install ``tracer`` process-wide (None restores the disabled
    default); returns the previously installed tracer."""
    global _CURRENT
    previous = _CURRENT
    _CURRENT = tracer if tracer is not None else _DISABLED
    return previous


@contextmanager
def tracing(*sinks: Sink) -> Iterator[Tracer]:
    """Install a fresh enabled tracer for the dynamic extent.

    Restores the previous tracer and closes the sinks on exit::

        with tracing(MemorySink()) as tracer:
            Session(...).run()
        totals = tracer.snapshot_counters()
    """
    tracer = Tracer(sinks=sinks, enabled=True)
    previous = set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(previous)
        tracer.close()

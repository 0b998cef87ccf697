"""Run manifests: the closing summary record of a traced run.

A manifest makes a trace self-describing: which command ran, against
which protocol, under which seed and configuration (content-hashed so
two traces are comparable at a glance), how long it took in wall and
CPU time, and what the counter totals were.  It is emitted as the final
``manifest`` event of the JSONL stream, so a single file carries both
the replayable event sequence and its summary.

:func:`trace_run` is the one-stop entry point the CLI's ``--trace``
flags use::

    with trace_run("out.jsonl", command="simulate",
                   protocol="alternating-bit", seed=3,
                   config={"messages": 10, "loss": 0.2}) as tracer:
        Session(system, script, seed=3).run()

On exit the manifest is appended and the sink closed.  The manifest of
an existing trace is recovered with :meth:`RunManifest.find`.
"""

from __future__ import annotations

import hashlib
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional, Sequence

from .events import MANIFEST, Event
from .sinks import JSONLSink, Sink
from .tracer import Tracer, tracing


def config_hash(config: Dict[str, object]) -> str:
    """Stable short hash of a JSON-safe configuration mapping."""
    canonical = json.dumps(
        config, sort_keys=True, separators=(",", ":"), default=str
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]


@dataclass
class RunManifest:
    """Summary of one traced run (the final event of its stream)."""

    command: str
    protocol: Optional[str]
    seed: Optional[int]
    config: Dict[str, object]
    config_hash: str
    wall_s: float
    cpu_s: float
    counters: Dict[str, float]
    events: int  # events emitted before the manifest itself
    status: str = "ok"
    extra: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        record = {
            "command": self.command,
            "protocol": self.protocol,
            "seed": self.seed,
            "config": self.config,
            "config_hash": self.config_hash,
            "wall_s": self.wall_s,
            "cpu_s": self.cpu_s,
            "counters": self.counters,
            "events": self.events,
            "status": self.status,
        }
        if self.extra:
            record["extra"] = self.extra
        return record

    @classmethod
    def from_event(cls, event: Event) -> "RunManifest":
        if event.kind != MANIFEST:
            raise ValueError(f"not a manifest event: {event.kind!r}")
        fields = dict(event.fields)
        extra = fields.pop("extra", {})
        return cls(extra=extra, **fields)  # type: ignore[arg-type]

    @classmethod
    def find(cls, events: Sequence[Event]) -> Optional["RunManifest"]:
        """The manifest of an event stream, if one was recorded."""
        for event in reversed(events):
            if event.kind == MANIFEST:
                return cls.from_event(event)
        return None


class _EventCountingSink(Sink):
    """Wrapper that counts events so the manifest can report them."""

    def __init__(self, inner: Sink):
        self.inner = inner
        self.emitted = 0

    def emit(self, event: Event) -> None:
        self.emitted += 1
        self.inner.emit(event)

    def close(self) -> None:
        self.inner.close()


@contextmanager
def trace_run(
    target,
    command: str,
    protocol: Optional[str] = None,
    seed: Optional[int] = None,
    config: Optional[Dict[str, object]] = None,
) -> Iterator[Tracer]:
    """Trace the block to ``target`` and close with a manifest.

    ``target`` is a JSONL path (or open handle), or an already-built
    sink.  The manifest's ``status`` is ``"ok"`` unless the block
    raised, in which case it is ``"error"`` (and the exception
    propagates -- the trace still ends with a well-formed manifest).
    """
    if isinstance(target, Sink):
        primary: Sink = target
    else:
        primary = JSONLSink(target)
    counting = _EventCountingSink(primary)
    config = dict(config or {})
    wall_started = time.perf_counter()
    cpu_started = time.process_time()
    status = "ok"
    with tracing(counting) as tracer:
        try:
            yield tracer
        except BaseException:
            status = "error"
            raise
        finally:
            manifest = RunManifest(
                command=command,
                protocol=protocol,
                seed=seed,
                config=config,
                config_hash=config_hash(config),
                wall_s=time.perf_counter() - wall_started,
                cpu_s=time.process_time() - cpu_started,
                counters=tracer.snapshot_counters(),
                events=counting.emitted,
                status=status,
            )
            tracer.emit(
                Event(
                    MANIFEST,
                    "run",
                    tracer._now(),
                    fields=manifest.to_dict(),
                )
            )

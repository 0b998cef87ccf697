"""Outside-in span tracing of the program's layers.

The tracer wraps public functions at the names their callers look up
(``repro.sim.session.run_to_quiescence``, ``repro.conformance.pool.
execute_run``, ...) and records one span per call: name, start, end,
parent span and job index.  Spans stay in memory; ``run.py`` writes them
as JSONL after the run.  A layer's self time is its span durations minus
the time covered by its child spans, so the self times of all spans sum
to the wall time the spans cover.

Only the process that installed the wrappers records spans.  Forked
fuzz-pool workers inherit the wrappers but call straight through, so a
pooled campaign is timed from the master's side only: the merge, the
pool set-up and the time the master waits for outcomes (``pool.wait``).
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple


def _campaign(tracer, campaign, seconds):
    tracer.add("fuzzer.states_interned", campaign.states_interned)
    return campaign


def _schedule(tracer, returned, seconds):
    outcomes, info = returned
    tracer.add("pool.schedules")
    if info.mode == "serial-fallback":
        tracer.add("pool.fallbacks")
    return tracer.iterate("pool.wait", outcomes, _run_outcome), info


def _run_outcome(tracer, outcome, seconds):
    # Worker-measured wall time of one fuzz run (shrinking included), so
    # pooled runs get per-run latencies although their spans are not seen.
    tracer.items.append(outcome.duration_s)
    return outcome


def _steps(tracer, result, seconds):
    tracer.add("session.steps", result.steps)
    return result


def _distinct(tracer, states, seconds):
    tracer.add("coverage.states_seen", len(states))
    return states


def _violations(tracer, found, seconds):
    tracer.add("oracles.violations", len(found))
    return found


def _shrink(tracer, shrink, seconds):
    tracer.add("shrink.executions", shrink.attempts)
    tracer.add("shrink.original", shrink.original_length)
    tracer.add("shrink.shrunk", shrink.length)
    tracer.add("shrink.budget_exhausted", int(shrink.budget_exhausted))
    return shrink


def _load(tracer, result, seconds):
    tracer.items.extend(session.duration_s for session in result.sessions)
    return result


def _explored(tracer, result, seconds):
    tracer.add("explore.states", len(result.states))
    tracer.add("explore.seconds", seconds)
    return result


def _item(tracer, result, seconds):
    tracer.items.append(seconds)
    return result


def _certificate(tracer, certificate, seconds):
    tracer.items.append(seconds)
    for key in ("pump_rounds", "pump_levels", "replayed_steps"):
        tracer.add(f"refute.{key}", certificate.stats.get(key, 0))
    tracer.add("refute.behavior_events", len(certificate.behavior))
    return certificate


#: (span name, call sites to wrap as "module:attribute" or
#: "module:Class.method", observer or None).  An observer sees each
#: call's return value and duration, records counts, and returns the
#: value the caller gets.
LAYERS: Tuple[Tuple[str, Tuple[str, ...], Optional[Callable]], ...] = (
    ("fuzzer.fuzz_campaign", ("repro.conformance.fuzzer:fuzz_campaign",), _campaign),
    ("pool.run_schedule", ("repro.conformance.pool:run_schedule",), _schedule),
    ("pool.wait", (), None),
    ("pool.execute_run", ("repro.conformance.pool:execute_run",), None),
    (
        "harness.build_system",
        (
            "repro.conformance.pool:build_system",
            "repro.conformance.harness:build_system",
        ),
        None,
    ),
    (
        "harness.build_script",
        (
            "repro.conformance.pool:build_script",
            "repro.conformance.harness:build_script",
        ),
        None,
    ),
    (
        "harness.execute_script",
        (
            "repro.conformance.pool:execute_script",
            "repro.conformance.shrink:execute_script",
        ),
        None,
    ),
    (
        "delivery_set.generate",
        (
            "repro.conformance.registry:random_lossy_fifo",
            "repro.conformance.registry:random_reordering",
        ),
        None,
    ),
    ("session.from_spec", ("repro.sim.session:Session.from_spec",), None),
    ("session.run", ("repro.sim.session:Session.run",), _steps),
    (
        "fairness.run_to_quiescence",
        (
            "repro.sim.session:run_to_quiescence",
            "repro.ioa.fairness:run_to_quiescence",
        ),
        None,
    ),
    (
        "runner.distinct_states",
        ("repro.sim.runner:ScenarioResult.distinct_states",),
        _distinct,
    ),
    (
        "oracles.check_execution",
        (
            "repro.conformance.pool:check_execution",
            "repro.conformance.shrink:check_execution",
        ),
        _violations,
    ),
    ("shrink.shrink_script", ("repro.conformance.fuzzer:shrink_script",), _shrink),
    ("replay.make_repro", ("repro.conformance.fuzzer:make_repro",), None),
    ("load.run_load", ("repro.sim.load:run_load",), _load),
    ("load.run_session", ("repro.sim.load:run_session",), None),
    ("metrics.delivery_stats", ("repro.sim.metrics:delivery_stats",), None),
    ("metrics.channel_stats", ("repro.sim.metrics:channel_stats",), None),
    (
        "model_check.verify_delivery_order",
        ("repro.analysis.model_check:verify_delivery_order",),
        _item,
    ),
    (
        "model_check.build_closed_system",
        ("repro.analysis.model_check:build_closed_system",),
        None,
    ),
    ("explorer.explore", ("repro.analysis.model_check:explore",), _explored),
    (
        "refute.headers",
        ("repro.impossibility.header_engine:refute_bounded_headers",),
        _certificate,
    ),
    (
        "refute.crash",
        ("repro.impossibility.crash_engine:refute_crash_tolerance",),
        _certificate,
    ),
    (
        "certificates.validate",
        ("repro.impossibility.certificates:ViolationCertificate.validate",),
        None,
    ),
)

SPAN_NAMES = tuple(name for name, _, _ in LAYERS)

#: Per-layer metrics besides each span's ``.share`` and ``.calls``:
#: name -> unit.  Counts are per unit of workload work, so they do not
#: grow with the number of jobs a run happens to complete.
DERIVED_METRICS: Dict[str, str] = {
    "session.steps": "steps/unit",
    "coverage.states_seen": "states/unit",
    "fuzzer.states_interned": "states/unit",
    "coverage.yield": "ratio",
    "oracles.violations": "count/unit",
    "shrink.executions": "runs/unit",
    "shrink.reduction": "ratio",
    "shrink.budget_exhausted": "ratio",
    "pool.fallbacks": "ratio",
    "explore.states_per_s": "1/s",
    "refute.pump_rounds": "rounds/unit",
    "refute.pump_levels": "levels/unit",
    "refute.replayed_steps": "steps/unit",
    "refute.behavior_events": "events/unit",
    "item.count": "count",
    "item_ms_p50": "ms",
    "item_ms_p99": "ms",
    "trace.attributed": "ratio",
    "trace.overhead": "ratio",
    "trace.wall_s": "s",
    "trace.units": "count",
}


def per_layer_units() -> Dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units: Dict[str, str] = {}
    for name in SPAN_NAMES:
        units[f"{name}.share"] = "ratio"
        units[f"{name}.calls"] = "calls/unit"
    units.update(DERIVED_METRICS)
    return units


def _resolve(site: str):
    """``(owner, attribute)`` of a ``module:attr`` / ``module:Class.attr``."""
    module_name, _, path = site.partition(":")
    owner = importlib.import_module(module_name)
    *classes, attribute = path.split(".")
    for name in classes:
        owner = getattr(owner, name)
    return owner, attribute


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def nearest_rank(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (0 for an empty sample)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


class Tracer:
    """Installs the layer wrappers and keeps the spans they record.

    A span is ``[name, start, end, parent index, job]``; ``job`` is the
    index ``run.py`` sets in :attr:`job` before each job.
    """

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Dict[str, float] = {}
        self.items: List[float] = []
        self.job: Optional[int] = None
        self._stack: List[int] = []
        self._patched: List[Tuple[object, str, object]] = []
        self._pid = os.getpid()

    def add(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def _open(self, name: str) -> list:
        record = [
            name,
            time.perf_counter(),
            None,
            self._stack[-1] if self._stack else None,
            self.job,
        ]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        return record

    def _close(self, record: list) -> float:
        record[2] = time.perf_counter()
        self._stack.pop()
        return record[2] - record[1]

    def _wrap(self, name: str, function: Callable, observe) -> Callable:
        @functools.wraps(function)
        def traced(*args, **kwargs):
            if os.getpid() != self._pid:
                return function(*args, **kwargs)
            record = self._open(name)
            try:
                result = function(*args, **kwargs)
            finally:
                seconds = self._close(record)
            return self._observe(name, observe, result, seconds)

        return traced

    def _observe(self, name: str, observe, value, seconds: float):
        if observe is None:
            return value
        try:
            return observe(self, value, seconds)
        except (AttributeError, TypeError, ValueError) as exc:
            # The value no longer has the shape the observer reads: its
            # counts read 0 rather than the benchmark failing.
            print(f"perfbench: cannot observe {name}: {exc}", file=sys.stderr)
            return value

    def iterate(self, name: str, iterable, observe=None):
        """Yield from ``iterable``, one span per item produced."""
        iterator = iter(iterable)
        while True:
            record = self._open(name)
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                seconds = self._close(record)
            yield self._observe(name, observe, item, seconds)

    def install(self) -> "Tracer":
        for name, sites, observe in LAYERS:
            for site in sites:
                try:
                    owner, attribute = _resolve(site)
                    original = vars(owner)[attribute]
                except (ImportError, AttributeError, KeyError):
                    # A refactor moved the call site: the layer reads 0
                    # calls rather than the benchmark failing.
                    print(f"perfbench: no call site {site}; {name} not traced", file=sys.stderr)
                    continue
                if isinstance(original, classmethod):
                    wrapped = classmethod(
                        self._wrap(name, original.__func__, observe)
                    )
                else:
                    wrapped = self._wrap(name, original, observe)
                setattr(owner, attribute, wrapped)
                self._patched.append((owner, attribute, original))
        return self

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._patched):
            setattr(owner, attribute, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # ------------------------------------------------------------------

    def self_times(self) -> List[float]:
        """Self time of every span, in span order."""
        own = [span[2] - span[1] for span in self.spans]
        for span in self.spans:
            parent = span[3]
            if parent is not None:
                own[parent] -= span[2] - span[1]
        return own

    def layer_table(self) -> Dict[str, dict]:
        """Per span name: calls, self seconds and span-duration samples."""
        table = {
            name: {"calls": 0, "self_s": 0.0, "durations": []}
            for name in SPAN_NAMES
        }
        for span, own in zip(self.spans, self.self_times()):
            row = table[span[0]]
            row["calls"] += 1
            row["self_s"] += own
            row["durations"].append(span[2] - span[1])
        return table

    def metrics(self, wall_s: float, units: int, untraced_s: float) -> Dict[str, float]:
        """The per-layer metrics of one traced pass over ``units`` of work
        that took ``wall_s`` traced and ``untraced_s`` untraced."""
        table = self.layer_table()
        values: Dict[str, float] = {}
        for name in SPAN_NAMES:
            values[f"{name}.share"] = _ratio(table[name]["self_s"], wall_s)
            values[f"{name}.calls"] = _ratio(table[name]["calls"], units)
        count = self.counts.get

        def per_unit(key: str) -> float:
            return _ratio(count(key, 0), units)

        values.update(
            {
                "session.steps": per_unit("session.steps"),
                "coverage.states_seen": per_unit("coverage.states_seen"),
                "fuzzer.states_interned": per_unit("fuzzer.states_interned"),
                "coverage.yield": _ratio(
                    count("fuzzer.states_interned", 0),
                    count("coverage.states_seen", 0),
                ),
                "oracles.violations": per_unit("oracles.violations"),
                "shrink.executions": per_unit("shrink.executions"),
                "shrink.reduction": 1.0
                - _ratio(count("shrink.shrunk", 0), count("shrink.original", 0))
                if count("shrink.original")
                else 0.0,
                "shrink.budget_exhausted": _ratio(
                    count("shrink.budget_exhausted", 0),
                    table["shrink.shrink_script"]["calls"],
                ),
                "pool.fallbacks": _ratio(
                    count("pool.fallbacks", 0), count("pool.schedules", 0)
                ),
                "explore.states_per_s": _ratio(
                    count("explore.states", 0), count("explore.seconds", 0)
                ),
                "refute.pump_rounds": per_unit("refute.pump_rounds"),
                "refute.pump_levels": per_unit("refute.pump_levels"),
                "refute.replayed_steps": per_unit("refute.replayed_steps"),
                "refute.behavior_events": per_unit("refute.behavior_events"),
                "item.count": len(self.items),
                "item_ms_p50": 1000 * nearest_rank(self.items, 50),
                "item_ms_p99": 1000 * nearest_rank(self.items, 99),
                "trace.attributed": _ratio(sum(self.self_times()), wall_s),
                "trace.overhead": _ratio(wall_s, untraced_s),
                "trace.wall_s": wall_s,
                "trace.units": units,
            }
        )
        return values

    def write_jsonl(self, path: str) -> None:
        """One JSON object per span, times relative to the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for index, (span, own) in enumerate(zip(self.spans, self.self_times())):
                name, start, end, parent, job = span
                handle.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": name,
                            "start": start - origin,
                            "end": end - origin,
                            "self": own,
                            "parent": parent,
                            "job": job,
                        }
                    )
                    + "\n"
                )

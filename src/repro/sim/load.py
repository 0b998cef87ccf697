"""Multi-session load generator: thousands of sessions, one report.

Instead of one sender/receiver pair per process
(:mod:`repro.sim.runner`), a load run schedules ``N`` protocol
**sessions** -- each a (protocol, channel family, SubSeed-derived
per-session seed) triple with its own generated script and fault
schedule -- and multiplexes them through the batched warm-worker pool
the fuzzer runs on (:func:`repro.conformance.pool.run_partitioned`).
This module supplies only the pool's item body (:func:`run_session`),
its outcome type (:class:`SessionOutcome`) and the load report; the
batching, per-batch wall-clock budget, containment, event capture,
worker set-up and ``details.pool`` telemetry are the pool's.

Determinism contract, inherited from the pool: the per-session
:class:`~repro.conformance.harness.SubSeeds` schedule is derived
serially up front from one master seed (session id = schedule index),
sessions are sharded across workers in contiguous batches **by session
id**, and the master's merge loop consumes shard streams strictly in
session-index order -- so every aggregate (throughput counters,
latency and delivery-ratio percentiles, the ``--trace`` event stream)
is byte-identical whatever ``--workers`` says.  Batches are sized from
the session count and the worker count
(:func:`~repro.conformance.pool.auto_batch_size`), so only the shard
layout follows ``--workers``.  Sessions share no run state (each
starts the process's one composed system from its own seeded channel
adversaries, and sessions never interleave), so the shard driver runs
each session to quiescence and the "event loop" is the lazy batch
merge.

Each session traces itself as one ``load.session`` span; the pool
captures it where the session ran and the master replays it.  After
each replay, under ``load.run``, the master emits live dashboard
telemetry through the obs layer: ``load.sessions_done`` /
``load.sessions_active`` gauges, the ``load.sessions`` counter, and
``load.timeout_unavailable`` when a requested ``--run-timeout`` could
not be armed.  The shard layout follows the batch size, so it stays
out of the stream and lives in ``details.pool.shards``.

The CLI entry point is ``repro load --sessions N --steps S``; the
result is the unified :class:`~repro.obs.RunReport` envelope with
p50/p95/p99 latency (steps from ``send_msg`` to ``receive_msg``) and
per-session delivery-ratio percentiles.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from ..conformance.harness import FAULT_MIXES, FuzzConfig, SubSeeds, with_mix
from ..conformance.pool import Outcome, run_partitioned
from ..obs import (
    STATUS_ERROR,
    STATUS_OK,
    RunReport,
    current_tracer,
)
from .metrics import percentile_summary
from .session import Session

#: Fraction digits kept for ratio/mean fields in the report details --
#: fixed so serial and pooled JSON renderings are byte-identical.
_ROUND = 6


@dataclass(frozen=True)
class LoadConfig:
    """Knobs for one load run.

    ``sessions`` is the number of concurrent conversations;
    ``messages`` (the CLI's ``--steps``) how many fresh messages each
    session's script offers; ``mix`` names the fuzz fault mix the
    sessions run under.  Every channel and fault knob comes from that
    mix (:func:`_fuzz_config`), so a load session is constructed
    exactly like a fuzz run.
    """

    sessions: int = 100
    messages: int = 4
    mix: str = "default"


def with_load_mix(config: LoadConfig, mix: str) -> LoadConfig:
    """``config`` with its sessions run under the named fault mix.

    The mixes are shared with ``repro fuzz``: any key of
    :data:`~repro.conformance.harness.FAULT_MIXES`.
    """
    if mix not in FAULT_MIXES:
        raise KeyError(
            f"unknown fault mix {mix!r}; available: "
            + ", ".join(sorted(FAULT_MIXES))
        )
    return replace(config, mix=mix)


def _fuzz_config(config: LoadConfig) -> FuzzConfig:
    """The harness-facing view of a load config: the fuzz defaults,
    the session's message count and the named mix, without shrinking."""
    return with_mix(
        FuzzConfig(messages=config.messages, shrink=False), config.mix
    )


@dataclass
class SessionOutcome(Outcome):
    """Everything one session ships back to the load master.

    Compact by construction: per-message latencies (step counts) and
    the delivery tallies, never the execution fragment -- a
    thousand-session run must not pickle a thousand executions.
    """

    steps: int = 0
    quiescent: bool = False
    sent: int = 0
    delivered: int = 0
    duplicates: int = 0
    dropped: int = 0
    latencies: Tuple[int, ...] = ()

    @property
    def delivery_ratio(self) -> float:
        """Delivered / sent, degenerate cases pinned like
        :class:`~repro.sim.metrics.DeliveryStats`."""
        if self.sent:
            return self.delivered / self.sent
        return 0.0 if self.delivered else 1.0


def run_session(
    protocol: str,
    channel: str,
    index: int,
    subseeds: SubSeeds,
    config: FuzzConfig,
    resolved=None,
) -> SessionOutcome:
    """One complete session: build, run to quiescence, summarize.

    The load item body, traced as one ``load.session`` span;
    ``config`` is the session's harness config (:func:`_fuzz_config`).
    Pure in ``(protocol, channel, subseeds, config)``, which is what
    lets shards execute anywhere and merge deterministically.
    """
    from .metrics import delivery_stats

    with current_tracer().span("load.session", index=index):
        session = Session.from_spec(
            protocol, channel, subseeds, config, resolved=resolved
        )
        result = session.run()
        stats = delivery_stats(result.fragment)
        return SessionOutcome(
            index=index,
            subseeds=subseeds,
            steps=result.steps,
            quiescent=result.quiescent,
            sent=stats.sent,
            delivered=stats.delivered,
            duplicates=stats.duplicates,
            dropped=stats.dropped,
            latencies=stats.latencies,
        )


@dataclass
class LoadResult:
    """Everything one load run produced, in session-index order."""

    protocol: str
    channel: str
    seed: int
    config: LoadConfig
    sessions: List[SessionOutcome]
    pool: Dict[str, object] = field(default_factory=dict)
    duration_s: float = 0.0

    @property
    def failed_sessions(self) -> int:
        return sum(1 for s in self.sessions if s.error is not None)

    @property
    def timeouts(self) -> int:
        return sum(1 for s in self.sessions if s.timed_out)

    @property
    def completed(self) -> List[SessionOutcome]:
        return [s for s in self.sessions if s.error is None]

    @property
    def latencies(self) -> Tuple[int, ...]:
        """All per-message latencies, pooled across sessions."""
        pooled: List[int] = []
        for outcome in self.completed:
            pooled.extend(outcome.latencies)
        return tuple(pooled)

    def shard_summaries(self) -> List[Dict[str, int]]:
        """Per-shard aggregates (sessions, failures, steps, deliveries).

        Shards are the pool's contiguous session-id batches, so the
        summary is a pure function of the outcomes and the batch size
        -- identical whichever worker executed each shard.
        """
        size = self.pool["batch_size"]
        shards: List[Dict[str, int]] = []
        for start in range(0, len(self.sessions), size):
            chunk = self.sessions[start : start + size]
            shards.append(
                {
                    "start": start,
                    "sessions": len(chunk),
                    "failed": sum(
                        1 for s in chunk if s.error is not None
                    ),
                    "steps": sum(s.steps for s in chunk),
                    "delivered": sum(s.delivered for s in chunk),
                }
            )
        return shards

    def report(self) -> RunReport:
        """The unified envelope: aggregate throughput and percentiles.

        Identity contract: everything here is a pure function of
        ``(protocol, channel, seed, config)`` **except**
        ``duration_s``, ``details.throughput`` (wall-clock derived)
        and ``details.pool`` (execution telemetry) -- normalize those
        three away and ``--workers N`` is byte-identical to serial.
        """
        completed = self.completed
        latencies = self.latencies
        ratios = [s.delivery_ratio for s in completed]
        latency: Dict[str, object] = {"unit": "steps", "count": len(latencies)}
        latency.update(percentile_summary(latencies))
        latency["mean"] = round(
            sum(latencies) / len(latencies), _ROUND
        ) if latencies else 0.0
        latency["max"] = max(latencies) if latencies else 0
        ratio_summary = {
            name: round(value, _ROUND)
            for name, value in percentile_summary(ratios).items()
        }
        ratio_summary["min"] = round(min(ratios), _ROUND) if ratios else 0.0
        ratio_summary["mean"] = (
            round(sum(ratios) / len(ratios), _ROUND) if ratios else 0.0
        )
        wall = self.duration_s or 0.0
        throughput = {
            "sessions_per_sec": round(len(self.sessions) / wall, 1)
            if wall
            else None,
            "steps_per_sec": round(
                sum(s.steps for s in self.sessions) / wall, 1
            )
            if wall
            else None,
            "deliveries_per_sec": round(
                sum(s.delivered for s in self.sessions) / wall, 1
            )
            if wall
            else None,
        }
        counters = {
            "load.sessions": len(self.sessions),
            "load.failed_sessions": self.failed_sessions,
            "load.timeouts": self.timeouts,
            "load.nonquiescent_sessions": sum(
                1 for s in completed if not s.quiescent
            ),
            "load.steps": sum(s.steps for s in self.sessions),
            "load.messages_sent": sum(s.sent for s in self.sessions),
            "load.messages_delivered": sum(
                s.delivered for s in self.sessions
            ),
            "load.duplicate_deliveries": sum(
                s.duplicates for s in self.sessions
            ),
            "load.packets_dropped": sum(
                s.dropped for s in self.sessions
            ),
        }
        status = STATUS_OK
        if self.sessions and not completed:
            status = STATUS_ERROR
        return RunReport(
            command="load",
            status=status,
            counters=counters,
            duration_s=self.duration_s,
            details={
                "protocol": self.protocol,
                "channel": self.channel,
                "seed": self.seed,
                "sessions": len(self.sessions),
                "messages_per_session": self.config.messages,
                "mix": self.config.mix,
                "latency": latency,
                "delivery_ratio": ratio_summary,
                "throughput": throughput,
                # Shard layout follows the pool's batch size, so it is
                # execution telemetry, normalized away with the rest.
                "pool": {**self.pool, "shards": self.shard_summaries()},
            },
        )


def run_load(
    protocol: str,
    channel: str,
    seed: int,
    config: Optional[LoadConfig] = None,
    workers: int = 1,
    run_timeout: Optional[float] = None,
) -> LoadResult:
    """Run one multi-session load campaign.

    Derives ``config.sessions`` per-session SubSeeds bundles from the
    master ``seed`` (session id = derivation index), shards them
    across ``workers`` persistent forked workers in chunks of
    consecutive session ids sized from the session and worker counts,
    and merges the shard streams in
    session-index order, emitting the live obs gauges as sessions
    complete.  ``run_timeout`` bounds each session's wall-clock
    seconds (shards are additionally held to a ``len(batch) *
    run_timeout`` total); a session that exceeds it, raises, or loses
    its worker is recorded as a failed :class:`SessionOutcome` instead
    of aborting the run.
    """
    from ..conformance.registry import check_fuzz_names

    # Configuration errors are not contained failures: validate the
    # registry names (and the derived harness config) eagerly.
    check_fuzz_names(protocol, channel)

    config = config or LoadConfig()
    fuzz_config = _fuzz_config(config)
    tracer = current_tracer()
    started = time.perf_counter()
    master = random.Random(seed)
    schedule = [SubSeeds.derive(master) for _ in range(config.sessions)]

    def body(index: int, subseeds: SubSeeds, resolved) -> SessionOutcome:
        return run_session(
            protocol, channel, index, subseeds, fuzz_config, resolved=resolved
        )

    sessions: List[SessionOutcome] = []
    with tracer.span("load.run", sessions=len(schedule), seed=seed):
        outcomes, pool_info = run_partitioned(
            protocol,
            channel,
            schedule,
            body,
            SessionOutcome,
            workers=workers,
            run_timeout=run_timeout,
        )
        if tracer.enabled:
            tracer.count("load.sessions_scheduled", len(schedule))
        for outcome in outcomes:
            tracer.absorb(outcome.events)
            outcome.events = ()  # absorbed; free the chunk
            sessions.append(outcome)
            if tracer.enabled:
                tracer.count("load.sessions")
                if outcome.timeout_unavailable:
                    tracer.count(
                        "load.timeout_unavailable",
                        1,
                        reason=outcome.timeout_unavailable,
                    )
                if outcome.error is not None:
                    tracer.count("load.failed_sessions")
                tracer.gauge("load.sessions_done", len(sessions))
                tracer.gauge(
                    "load.sessions_active", len(schedule) - len(sessions)
                )

    return LoadResult(
        protocol=protocol,
        channel=channel,
        seed=seed,
        config=config,
        sessions=sessions,
        pool=pool_info.details(),
        duration_s=time.perf_counter() - started,
    )


def normalized_report(report_dict: Dict) -> Dict:
    """A load RunReport dict with the wall-clock keys normalized away.

    This is the identity the ``--workers N`` contract is stated over:
    ``normalized_report(serial) == normalized_report(pooled)``.
    """
    import copy

    normalized = copy.deepcopy(report_dict)
    normalized["duration_s"] = None
    normalized.get("details", {}).pop("pool", None)
    normalized.get("details", {}).pop("throughput", None)
    return normalized

"""The fuzz campaign driver.

One campaign = one (protocol, channel, seed, config) quadruple.  The
campaign master RNG derives per-run :class:`SubSeeds`; each run builds a
fresh system against sub-seeded channel adversaries, generates a
well-formed fault script, executes it under seeded fair interleaving,
and checks the execution against every applicable oracle
(:mod:`repro.conformance.oracles`).  Violating runs are shrunk to
locally-minimal scripts (:mod:`repro.conformance.shrink`) -- one
repro per *distinct violated oracle* per run -- and packaged as
replayable repro documents (:mod:`repro.conformance.replay`).

Coverage is measured with the exploration engine's
:class:`~repro.ioa.engine.interning.InternTable`: every system state an
execution visits is interned, and a run that contributes many
first-seen states is recorded in the corpus even if it violated
nothing.  Campaigns are bit-deterministic in their seed: no module on
this path touches the global RNG.

Runs are executed through :mod:`repro.conformance.pool`: the full
sub-seed schedule is derived serially up front and chunked into
batches, batches fan out to a persistent fork pool (``workers > 1``)
or run in-process, and the master merges outcomes in run-index order
-- replaying each run's captured ``fuzz.run`` span, then interning the
run's distinct states (a pooled batch ships each state once) and
assigning corpus credit under ``fuzz.pool`` -- so a parallel campaign
is byte-identical to a serial one whatever the worker count.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from ..ioa.engine.interning import InternTable
from ..obs import (
    STATUS_ERROR,
    STATUS_OK,
    STATUS_VIOLATION,
    RunReport,
    current_tracer,
)
from .corpus import DEFAULT_COVERAGE_THRESHOLD, CorpusEntry
from .harness import FuzzConfig, SubSeeds
from .oracles import OracleViolation
from .replay import make_repro
from .shrink import ShrinkResult, shrink_script

import random


@dataclass
class ViolationReport:
    """One oracle violation, with its (possibly shrunk) repro script."""

    run_index: int
    violation: OracleViolation
    script_length: int
    shrunk_length: int
    shrink: Optional[ShrinkResult]
    repro: dict

    def to_dict(self) -> dict:
        return {
            "run_index": self.run_index,
            "oracle": self.violation.oracle,
            "layer": self.violation.layer,
            "paper": self.violation.paper,
            "witness": self.violation.witness,
            "direction": list(self.violation.direction)
            if self.violation.direction
            else None,
            "prefix_length": self.violation.prefix_length,
            "script_length": self.script_length,
            "shrunk_length": self.shrunk_length,
        }


@dataclass
class RunRecord:
    """Summary of one fuzz run.

    ``error`` is set for contained failures -- a run that raised, timed
    out (``run_timeout``) or lost its worker process; such a run
    contributes nothing to coverage or the corpus but still occupies
    its schedule slot, so the campaign's run indices stay stable.
    """

    index: int
    subseeds: SubSeeds
    steps: int
    quiescent: bool
    behavior_length: int
    new_states: int
    violations: List[OracleViolation] = field(default_factory=list)
    error: Optional[str] = None
    # Arbitrary-init runs only (None in clean mode): the run's
    # stabilization measurement, merged into the campaign percentiles.
    stabilization_time: Optional[int] = None
    stab_converged: Optional[bool] = None


@dataclass
class FuzzCampaignResult:
    """Everything one campaign produced."""

    protocol: str
    channel: str
    seed: int
    config: FuzzConfig
    runs: List[RunRecord]
    violations: List[ViolationReport]
    corpus: List[CorpusEntry]
    states_interned: int
    oracle_checks: int
    deep: dict = field(default_factory=dict)
    pool: dict = field(default_factory=dict)
    duration_s: float = 0.0

    @property
    def found_violation(self) -> bool:
        return (
            bool(self.violations)
            or not self.deep.get("message_independent", True)
            or not self.deep.get("k_bound_delivered", True)
        )

    @property
    def failed_runs(self) -> int:
        return sum(1 for run in self.runs if run.error is not None)

    def report(self) -> RunReport:
        counters = {
            "fuzz.runs": len(self.runs),
            "fuzz.failed_runs": self.failed_runs,
            "fuzz.oracle_checks": self.oracle_checks,
            "fuzz.violations": len(self.violations),
            "fuzz.violating_runs": sum(
                1 for run in self.runs if run.violations
            ),
            "fuzz.states_interned": self.states_interned,
            "fuzz.steps": sum(run.steps for run in self.runs),
            "fuzz.nonquiescent_runs": sum(
                1
                for run in self.runs
                if not run.quiescent and run.error is None
            ),
            "fuzz.shrink_executions": sum(
                v.shrink.attempts for v in self.violations if v.shrink
            ),
        }
        details = {
            "protocol": self.protocol,
            "channel": self.channel,
            "seed": self.seed,
            "violations": [v.to_dict() for v in self.violations],
            "corpus_entries": len(self.corpus),
        }
        measured = [
            run
            for run in self.runs
            if run.stabilization_time is not None
        ]
        if measured:
            from ..sim.metrics import percentile_summary

            times = [run.stabilization_time for run in measured]
            summary = percentile_summary(times)
            converged = sum(1 for run in measured if run.stab_converged)
            counters["fuzz.stab.measured_runs"] = len(measured)
            counters["fuzz.stab.converged_runs"] = converged
            for key, value in summary.items():
                counters[f"fuzz.stab.time_{key}"] = value
            counters["fuzz.stab.time_max"] = max(times)
            details["stabilization"] = {
                **summary,
                "max": max(times),
                "measured_runs": len(measured),
                "converged_runs": converged,
            }
        if self.deep:
            details["deep"] = dict(self.deep)
        if self.pool:
            # Which pool executed the campaign is telemetry, not an
            # outcome: byte-identity between worker counts is over
            # everything *except* this key (and duration_s).
            details["pool"] = dict(self.pool)
        status = STATUS_VIOLATION if self.found_violation else STATUS_OK
        if self.runs and self.failed_runs == len(self.runs):
            # Nothing was judged, so nothing is acquitted.
            status = STATUS_ERROR
        return RunReport(
            command="fuzz",
            status=status,
            counters=counters,
            duration_s=self.duration_s,
            details=details,
        )


def fuzz_campaign(
    protocol: str,
    channel: str,
    seed: int,
    config: Optional[FuzzConfig] = None,
    replay_subseeds: Optional[Sequence[SubSeeds]] = None,
    workers: int = 1,
    run_timeout: Optional[float] = None,
) -> FuzzCampaignResult:
    """Run one fuzz campaign.

    ``replay_subseeds`` (e.g. from a loaded corpus) are fuzzed first,
    before ``config.runs`` freshly derived runs.  Determinism contract:
    two campaigns with equal arguments produce identical results,
    including identical shrunk scripts and repro documents -- and
    ``workers`` is not part of the outcome: the sub-seed schedule is
    derived serially before any run executes, workers return pure
    per-run outcomes in per-batch envelopes (batches are sized from
    the schedule length and worker count), and the master interns
    visited states and assigns corpus/coverage credit in run-index
    order, so ``workers=N`` is byte-identical to ``workers=1``
    (violations, repro documents, corpus entries, counters, trace
    events).  A run that adds at least
    :data:`~repro.conformance.corpus.DEFAULT_COVERAGE_THRESHOLD`
    first-seen states enters the corpus.  ``run_timeout``
    bounds each run's wall-clock seconds (batches are additionally
    held to a ``len(batch) * run_timeout`` total); a run that exceeds
    it (or raises, or loses its worker) is recorded as a failed
    :class:`RunRecord` instead of aborting the campaign.
    """
    from .pool import run_schedule
    from .registry import check_fuzz_names

    # Configuration errors are not contained failures: validate the
    # registry names eagerly, before any run is scheduled.
    check_fuzz_names(protocol, channel)

    config = config or FuzzConfig()
    tracer = current_tracer()
    started = time.perf_counter()
    master = random.Random(seed)
    table = InternTable()
    runs: List[RunRecord] = []
    violations: List[ViolationReport] = []
    corpus: List[CorpusEntry] = []
    oracle_checks = 0

    schedule: List[SubSeeds] = list(replay_subseeds or ())
    schedule += [SubSeeds.derive(master) for _ in range(config.runs)]

    with tracer.span("fuzz.pool", runs=len(schedule)):
        if tracer.enabled:
            tracer.count("fuzz.pool.dispatched", len(schedule))
        outcomes, pool_info = run_schedule(
            protocol,
            channel,
            seed,
            schedule,
            config,
            workers=workers,
            run_timeout=run_timeout,
        )
        for outcome in outcomes:
            index, subseeds = outcome.index, outcome.subseeds
            # The run's own ``fuzz.run`` span, partial if it failed;
            # the merge bookkeeping below lands under ``fuzz.pool``.
            tracer.absorb(outcome.events)
            if tracer.enabled:
                tracer.count("fuzz.runs")
                if outcome.timeout_unavailable:
                    # The per-run wall-clock guard was requested but
                    # could not arm (no SIGALRM off the main thread /
                    # non-POSIX platform); the run executed unguarded.
                    tracer.count(
                        "fuzz.pool.timeout_unavailable",
                        1,
                        reason=outcome.timeout_unavailable,
                    )
            if outcome.error is not None:
                if tracer.enabled:
                    tracer.count("fuzz.pool.failures")
                    tracer.point(
                        "fuzz.run.error",
                        index=index,
                        error=outcome.error,
                    )
                runs.append(
                    RunRecord(
                        index=index,
                        subseeds=subseeds,
                        steps=0,
                        quiescent=False,
                        behavior_length=0,
                        new_states=0,
                        error=outcome.error,
                    )
                )
                continue
            # ``state_values`` are deduplicated within the run, and a
            # pooled batch also strips the values its earlier runs
            # carried, which this loop interned first: either way the
            # credit and the table's insertion order are the same.
            before = len(table)
            for state in outcome.state_values:
                table.intern(state)
            new_states = len(table) - before
            if tracer.enabled:
                tracer.count("fuzz.states_interned", new_states)
            oracle_checks += outcome.oracle_checks
            runs.append(
                RunRecord(
                    index=index,
                    subseeds=subseeds,
                    steps=outcome.steps,
                    quiescent=outcome.quiescent,
                    behavior_length=outcome.behavior_length,
                    new_states=new_states,
                    violations=outcome.found,
                    stabilization_time=outcome.stabilization_time,
                    stab_converged=outcome.stab_converged,
                )
            )
            if outcome.violations:
                violations.extend(outcome.violations)
                for packaged in outcome.violations:
                    corpus.append(
                        CorpusEntry(
                            protocol,
                            channel,
                            seed,
                            index,
                            subseeds,
                            reason="violation",
                            oracle=packaged.violation.oracle,
                            new_states=new_states,
                        )
                    )
            elif new_states >= DEFAULT_COVERAGE_THRESHOLD:
                corpus.append(
                    CorpusEntry(
                        protocol,
                        channel,
                        seed,
                        index,
                        subseeds,
                        reason="coverage",
                        new_states=new_states,
                    )
                )

    deep = _deep_oracles(protocol, config, tracer) if config.deep_oracles else {}

    campaign = FuzzCampaignResult(
        protocol=protocol,
        channel=channel,
        seed=seed,
        config=config,
        runs=runs,
        violations=violations,
        corpus=corpus,
        states_interned=len(table),
        oracle_checks=oracle_checks,
        deep=deep,
        pool=pool_info.details(),
        duration_s=time.perf_counter() - started,
    )
    if tracer.enabled:
        tracer.gauge("fuzz.corpus_entries", len(corpus))
    return campaign


def _package_violation(
    protocol: str,
    channel: str,
    seed: int,
    index: int,
    subseeds: SubSeeds,
    config: FuzzConfig,
    system,
    actions,
    violation: OracleViolation,
) -> ViolationReport:
    """Shrink (if configured) and build the replayable repro document."""
    shrink = None
    final_actions = tuple(actions)
    if config.shrink:
        shrink = shrink_script(
            system, actions, violation.oracle, subseeds, config
        )
        final_actions = shrink.actions
    repro = make_repro(
        protocol,
        channel,
        seed,
        index,
        subseeds,
        config,
        system,
        final_actions,
        violation,
        shrunk=shrink is not None,
    )
    return ViolationReport(
        run_index=index,
        violation=violation,
        script_length=len(actions),
        shrunk_length=len(final_actions),
        shrink=shrink,
        repro=repro,
    )


def _deep_oracles(protocol: str, config: FuzzConfig, tracer) -> dict:
    """Whole-protocol oracles: message independence and the k-bound probe.

    These analyze the protocol itself rather than one execution, so they
    run once per campaign (opt-in: they cost an exploration each).  Both
    carry an explicit boolean verdict that feeds ``found_violation``:
    ``message_independent`` and ``k_bound_delivered`` (False when the
    probe could not transmit a fresh message within its budget, i.e. the
    protocol refutes its own boundedness/liveness claim).
    """
    from ..datalink.kbounded import probe_k_bound
    from ..datalink.message_independence import check_message_independence
    from .registry import resolve_fuzz_protocol

    deep = {}
    with tracer.span("fuzz.deep", protocol=protocol):
        independence = check_message_independence(resolve_fuzz_protocol(protocol))
        deep["message_independent"] = bool(independence.independent)
        if not independence.independent:
            deep["message_independence_detail"] = independence.detail
        kbound = probe_k_bound(resolve_fuzz_protocol(protocol))
        deep["k_bound"] = kbound.k
        deep["k_bound_delivered"] = bool(kbound.delivered)
        if not kbound.delivered:
            deep["k_bound_detail"] = kbound.detail
    return deep

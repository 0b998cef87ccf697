"""Executable oracles the fuzzer checks every execution against.

Each oracle wraps one trace predicate from the paper's formal apparatus
(:mod:`repro.datalink.properties` for DL1-DL8 and validity,
:mod:`repro.channels.properties` for well-formedness and PL1-PL6) and
tags it with the metadata the fuzzer needs to apply it soundly:

* **scope** -- ``prefix`` oracles are prefix-monotone safety properties:
  once violated, every extension stays violated, so they are checked on
  every run and the earliest violating prefix is located by binary
  search (checking every prefix in one O(log n) pass).  ``quiescent``
  oracles (DL1, DL7, DL8, validity, the PL6 finite diagnostic) are only
  meaningful on a whole quiescent trace -- a truncated run could flag a
  loss that a fair extension would cure -- so they are skipped when the
  run did not quiesce.
* **layer** -- DL oracles read the data-link behavior (the hidden
  composition's external actions); PL oracles read the full execution's
  action sequence, once per channel direction.  (PL5), FIFO order, is
  only applied to directions whose physical channel is FIFO-only.
* **paper** -- the section the predicate formalizes, surfaced in
  reports and in ``docs/paper_map.md``.

Validity (Section 8.1) is environment-conditional: it only applies to
behaviors containing a wake but no fail/crash events, so it is checked
exactly when the driving script was fault-free.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from ..channels.actions import CRASH, FAIL, WAKE
from ..channels import properties as pl
from ..datalink import properties as dl
from ..ioa.actions import Action
from ..ioa.schedule_module import PropertyResult
from ..obs import current_tracer
from .arbitrary import stabilization_report

PREFIX = "prefix"
QUIESCENT = "quiescent"
RUN = "run"

CheckFn = Callable[[Sequence[Action], str, str], PropertyResult]


@dataclass(frozen=True)
class Oracle:
    """One executable trace predicate plus its application metadata."""

    name: str
    layer: str  # "dl", "pl" or "stab"
    scope: str  # PREFIX, QUIESCENT or RUN
    paper: str  # paper section (or arXiv id) the predicate formalizes
    check: CheckFn
    fifo_only: bool = False  # PL5: apply only to FIFO channel directions


DL_ORACLES: Tuple[Oracle, ...] = (
    Oracle("DL-well-formed", "dl", PREFIX, "§4", dl.dl_well_formed),
    Oracle("DL1", "dl", QUIESCENT, "§4 (DL1)", dl.dl1),
    Oracle("DL2", "dl", PREFIX, "§4 (DL2)", dl.dl2),
    Oracle("DL3", "dl", PREFIX, "§4 (DL3)", dl.dl3),
    Oracle("DL4", "dl", PREFIX, "§4 (DL4)", dl.dl4),
    Oracle("DL5", "dl", PREFIX, "§4 (DL5)", dl.dl5),
    Oracle("DL6", "dl", PREFIX, "§4 (DL6)", dl.dl6),
    Oracle("DL7", "dl", QUIESCENT, "§4 (DL7)", dl.dl7),
    Oracle(
        "DL8",
        "dl",
        QUIESCENT,
        "§4 (DL8)",
        lambda s, t, r: dl.dl8(s, t, r, quiescent=True),
    ),
    Oracle("valid", "dl", QUIESCENT, "§8.1", dl.is_valid_sequence),
)

PL_ORACLES: Tuple[Oracle, ...] = (
    Oracle("PL-well-formed", "pl", PREFIX, "§3", pl.pl_well_formed),
    Oracle("PL1", "pl", PREFIX, "§3 (PL1)", pl.pl1),
    Oracle("PL2", "pl", PREFIX, "§3 (PL2)", pl.pl2),
    Oracle("PL3", "pl", PREFIX, "§3 (PL3)", pl.pl3),
    Oracle("PL4", "pl", PREFIX, "§3 (PL4)", pl.pl4),
    Oracle("PL5", "pl", PREFIX, "§3 (PL5)", pl.pl5, fifo_only=True),
    Oracle(
        "PL6-finite", "pl", QUIESCENT, "§3 (PL6)", pl.pl6_finite_diagnostic
    ),
)


# ----------------------------------------------------------------------
# Stabilization oracles (arbitrary-initial-state mode only)
# ----------------------------------------------------------------------
#
# Under ``--init-mode arbitrary`` the run starts from a corrupted state,
# so the DL/PL safety oracles would convict *every* protocol on the
# corrupted prefix.  The stabilization family judges what
# self-stabilization actually promises instead: the run recovers (a
# violation-free suffix exists) and recovers fast enough.


def stabilization_bound(length: int) -> int:
    """The convergence budget SSTAB2 allows a behavior of this length.

    Corruption symptoms concentrate at the front of a run (ghost
    packets drain early, stale sequence numbers resynchronize within a
    round trip), so a stabilizing protocol cleans up well before the
    halfway mark; the constant floor keeps very short behaviors from
    being judged on a one-or-two-event budget.
    """
    return max(8, length // 2)


def sstab1(
    schedule: Sequence[Action], t: str, r: str
) -> PropertyResult:
    """(SSTAB1) eventual safety: a violation-free suffix exists."""
    report = stabilization_report(schedule, t, r)
    if report.converged:
        return PropertyResult.ok("SSTAB1")
    return PropertyResult.violated(
        "SSTAB1",
        f"no violation-free suffix: the behavior ({report.length} "
        "events) still violates the specification at its final event",
    )


def sstab2(
    schedule: Sequence[Action], t: str, r: str
) -> PropertyResult:
    """(SSTAB2) bounded convergence: stabilization happens fast enough.

    Only meaningful for behaviors that converge at all (SSTAB1's
    concern otherwise): the dirty prefix must fit in
    :func:`stabilization_bound`.
    """
    report = stabilization_report(schedule, t, r)
    if not report.converged:
        return PropertyResult.ok("SSTAB2")
    bound = stabilization_bound(report.length)
    if report.time <= bound:
        return PropertyResult.ok("SSTAB2")
    return PropertyResult.violated(
        "SSTAB2",
        f"stabilization_time {report.time} exceeds the convergence "
        f"bound {bound} (behavior length {report.length})",
    )


def _sstab_wf(
    schedule: Sequence[Action], t: str, r: str
) -> PropertyResult:
    """(SSTAB-wf) placeholder check; quiescence is judged run-level.

    The predicate needs the run's quiescence flag, which a trace-only
    ``CheckFn`` cannot see; :func:`check_execution` applies it
    directly.  Registered so the catalog and the violation metadata
    have one canonical description.
    """
    return PropertyResult.ok("SSTAB-wf")


STAB_ORACLES: Tuple[Oracle, ...] = (
    Oracle("SSTAB-wf", "stab", RUN, "arXiv:1011.3632 §2", _sstab_wf),
    Oracle("SSTAB1", "stab", QUIESCENT, "arXiv:1011.3632 §2", sstab1),
    Oracle("SSTAB2", "stab", QUIESCENT, "arXiv:1011.3632 §4", sstab2),
)


class Findings(list):
    """The violations one :func:`check_execution` pass found.

    A plain list of :class:`OracleViolation` plus ``checks``: how many
    oracle applications the pass performed -- the one count behind both
    the campaign report's ``fuzz.oracle_checks`` and the traced counter
    of the same name.
    """

    checks = 0


@dataclass(frozen=True)
class OracleViolation:
    """One oracle failure on one execution."""

    oracle: str
    layer: str
    scope: str
    paper: str
    witness: str
    direction: Optional[Tuple[str, str]] = None
    prefix_length: Optional[int] = None

    def describe(self) -> str:
        where = (
            f" on channel {self.direction[0]}->{self.direction[1]}"
            if self.direction
            else ""
        )
        at = (
            f" (earliest violating prefix: {self.prefix_length} events)"
            if self.prefix_length is not None
            else ""
        )
        return f"{self.oracle}{where}: {self.witness}{at}"


def earliest_violating_prefix(
    check: CheckFn, schedule: Sequence[Action], a: str, b: str
) -> int:
    """Shortest prefix length on which a prefix-monotone oracle fails.

    Assumes ``check`` fails on the full ``schedule``; monotonicity makes
    "fails on the first n events" monotone in ``n``, so binary search
    visits O(log n) prefixes instead of all of them.
    """
    lo, hi = 1, len(schedule)
    while lo < hi:
        mid = (lo + hi) // 2
        if check(schedule[:mid], a, b).holds:
            lo = mid + 1
        else:
            hi = mid
    return lo


def _apply(
    oracle: Oracle,
    schedule: Sequence[Action],
    a: str,
    b: str,
    direction: Optional[Tuple[str, str]],
    violations: List[OracleViolation],
) -> None:
    result = oracle.check(schedule, a, b)
    if result.holds:
        return
    prefix = (
        earliest_violating_prefix(oracle.check, schedule, a, b)
        if oracle.scope == PREFIX
        else None
    )
    violations.append(
        OracleViolation(
            oracle=oracle.name,
            layer=oracle.layer,
            scope=oracle.scope,
            paper=oracle.paper,
            witness=result.witness or "",
            direction=direction,
            prefix_length=prefix,
        )
    )


def check_execution(system, result, config=None) -> Findings:
    """Check one scenario result against every applicable oracle.

    ``system`` is the :class:`~repro.sim.network.DataLinkSystem` that
    produced ``result`` (a :class:`~repro.sim.runner.ScenarioResult`).
    Quiescent-scope oracles are skipped on non-quiescent runs; validity
    is skipped when the behavior contains fail/crash events (it would
    report the environment's faults, not the protocol's).  The returned
    :class:`Findings` counts the oracles actually applied.

    When ``config`` carries ``init_mode="arbitrary"``, the run started
    corrupted and *only* the stabilization oracles apply: the DL/PL
    safety family would blame the corrupted prefix on the protocol.
    """
    if (
        config is not None
        and getattr(config, "init_mode", "clean") == "arbitrary"
    ):
        return _check_stabilization(system, result)
    tracer = current_tracer()
    violations = Findings()
    behavior = result.behavior
    fault_free = not any(a.name in (FAIL, CRASH) for a in behavior)
    has_wake = any(a.name == WAKE for a in behavior)
    for oracle in DL_ORACLES:
        if oracle.scope == QUIESCENT and not result.quiescent:
            continue
        if oracle.name == "valid" and not (fault_free and has_wake):
            continue
        violations.checks += 1
        _apply(oracle, behavior, system.t, system.r, None, violations)
    packet_schedule = result.fragment.actions
    for src, dst, channel in (
        (system.t, system.r, system.channel_tr),
        (system.r, system.t, system.channel_rt),
    ):
        for oracle in PL_ORACLES:
            if oracle.scope == QUIESCENT and not result.quiescent:
                continue
            if oracle.fifo_only and not channel.fifo_only:
                continue
            violations.checks += 1
            _apply(
                oracle, packet_schedule, src, dst, (src, dst), violations
            )
    _count(tracer, violations)
    return violations


def _count(tracer, findings: Findings) -> None:
    """Emit one pass's oracle counters (when tracing)."""
    if tracer.enabled:
        tracer.count("fuzz.oracle_checks", findings.checks)
        if findings:
            tracer.count("fuzz.oracle_violations", len(findings))


def _check_stabilization(system, result) -> Findings:
    """The arbitrary-init oracle pass: SSTAB-wf, then SSTAB1/SSTAB2.

    Emits the ``stab.time``/``stab.converged`` gauges alongside the
    verdicts.  A non-quiescent run violates SSTAB-wf (it wedged instead
    of recovering); the suffix-based oracles are quiescent-scoped, so
    they are skipped exactly like DL1/DL7/DL8 on truncated runs.
    """
    tracer = current_tracer()
    violations = Findings()
    behavior = result.behavior
    report = stabilization_report(behavior, system.t, system.r)
    if tracer.enabled:
        tracer.gauge("stab.time", report.time)
        tracer.gauge("stab.converged", 1 if report.converged else 0)
    for oracle in STAB_ORACLES:
        if oracle.scope == QUIESCENT and not result.quiescent:
            continue
        violations.checks += 1
        if oracle.scope == RUN:
            if not result.quiescent:
                violations.append(
                    OracleViolation(
                        oracle=oracle.name,
                        layer=oracle.layer,
                        scope=oracle.scope,
                        paper=oracle.paper,
                        witness=(
                            "the run did not quiesce from its corrupted "
                            "start within the step budget"
                        ),
                    )
                )
            continue
        _apply(oracle, behavior, system.t, system.r, None, violations)
    _count(tracer, violations)
    return violations


def oracle_catalog() -> List[dict]:
    """Every registered oracle as a plain dict (for reports and docs)."""
    catalog = []
    for oracle in DL_ORACLES + PL_ORACLES + STAB_ORACLES:
        catalog.append(
            {
                "name": oracle.name,
                "layer": oracle.layer,
                "scope": oracle.scope,
                "paper": oracle.paper,
            }
        )
    return catalog

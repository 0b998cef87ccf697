"""Executable oracles the fuzzer checks every execution against.

Each oracle wraps one trace predicate from the paper's formal apparatus
(:mod:`repro.datalink.properties` for DL1-DL8 and validity,
:mod:`repro.channels.properties` for well-formedness and PL1-PL6) and
tags it with the metadata the fuzzer needs to apply it soundly:

* **scope** -- ``prefix`` oracles are prefix-monotone safety properties:
  once violated, every extension stays violated, so they are checked on
  every run, and the event at which the predicate's streaming monitor
  first turned "violated" ends the earliest violating prefix.  ``quiescent``
  oracles (DL1, DL7, DL8, validity, the PL6 finite diagnostic) are only
  meaningful on a whole quiescent trace -- a truncated run could flag a
  loss that a fair extension would cure -- so they are skipped when the
  run did not quiesce.
* **layer** -- DL oracles read the data-link behavior (the hidden
  composition's external actions); PL oracles read the full execution's
  action sequence, for each channel direction.  (PL5), FIFO order, is
  only applied to directions whose physical channel is FIFO-only.
* **paper** -- the section the predicate formalizes, surfaced in
  reports and in ``docs/paper_map.md``.

Validity (Section 8.1) is environment-conditional: it only applies to
behaviors containing a wake but no fail/crash events, so it is checked
exactly when the driving script was fault-free.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from ..channels import properties as pl
from ..channels.properties import feed_all
from ..datalink import properties as dl
from ..ioa.schedule_module import PropertyResult
from ..obs import current_tracer
from .arbitrary import StabilizationReport, stabilization_report

PREFIX = "prefix"
QUIESCENT = "quiescent"
RUN = "run"


@dataclass(frozen=True)
class Oracle:
    """One executable trace predicate plus its application metadata.

    ``judge`` builds the DL/PL predicate's monitor for ``(a, b)``, or
    judges a run's :class:`StabilizationReport` (none for SSTAB-wf).
    """

    name: str
    layer: str  # "dl", "pl" or "stab"
    scope: str  # PREFIX, QUIESCENT or RUN
    paper: str  # paper section (or arXiv id) the predicate formalizes
    judge: Optional[Callable] = None
    fifo_only: bool = False  # PL5: apply only to FIFO channel directions


DL_ORACLES: Tuple[Oracle, ...] = (
    Oracle("DL-well-formed", "dl", PREFIX, "§4", dl.MONITORS["DL-well-formed"]),
    Oracle("DL1", "dl", QUIESCENT, "§4 (DL1)", dl.MONITORS["DL1"]),
    Oracle("DL2", "dl", PREFIX, "§4 (DL2)", dl.MONITORS["DL2"]),
    Oracle("DL3", "dl", PREFIX, "§4 (DL3)", dl.MONITORS["DL3"]),
    Oracle("DL4", "dl", PREFIX, "§4 (DL4)", dl.MONITORS["DL4"]),
    Oracle("DL5", "dl", PREFIX, "§4 (DL5)", dl.MONITORS["DL5"]),
    Oracle("DL6", "dl", PREFIX, "§4 (DL6)", dl.MONITORS["DL6"]),
    Oracle("DL7", "dl", QUIESCENT, "§4 (DL7)", dl.MONITORS["DL7"]),
    Oracle("DL8", "dl", QUIESCENT, "§4 (DL8)", dl.MONITORS["DL8"]),
    Oracle("valid", "dl", QUIESCENT, "§8.1", dl.MONITORS["valid"]),
)

PL_ORACLES: Tuple[Oracle, ...] = (
    Oracle("PL-well-formed", "pl", PREFIX, "§3", pl.MONITORS["PL-well-formed"]),
    Oracle("PL1", "pl", PREFIX, "§3 (PL1)", pl.MONITORS["PL1"]),
    Oracle("PL2", "pl", PREFIX, "§3 (PL2)", pl.MONITORS["PL2"]),
    Oracle("PL3", "pl", PREFIX, "§3 (PL3)", pl.MONITORS["PL3"]),
    Oracle("PL4", "pl", PREFIX, "§3 (PL4)", pl.MONITORS["PL4"]),
    Oracle("PL5", "pl", PREFIX, "§3 (PL5)", pl.MONITORS["PL5"], fifo_only=True),
    Oracle(
        "PL6-finite", "pl", QUIESCENT, "§3 (PL6)", pl.MONITORS["PL6-finite"]
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


def sstab1(report: StabilizationReport) -> PropertyResult:
    """(SSTAB1) eventual safety: a violation-free suffix exists."""
    if report.converged:
        return PropertyResult.ok("SSTAB1")
    return PropertyResult.violated(
        "SSTAB1",
        f"no violation-free suffix: the behavior ({report.length} "
        "events) still violates the specification at its final event",
    )


def sstab2(report: StabilizationReport) -> PropertyResult:
    """(SSTAB2) bounded convergence: stabilization happens fast enough.

    Only meaningful for behaviors that converge at all (SSTAB1's
    concern otherwise): the dirty prefix must fit in
    :func:`stabilization_bound`.
    """
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


STAB_ORACLES: Tuple[Oracle, ...] = (
    Oracle("SSTAB-wf", "stab", RUN, "arXiv:1011.3632 §2"),
    Oracle("SSTAB1", "stab", QUIESCENT, "arXiv:1011.3632 §2", sstab1),
    Oracle("SSTAB2", "stab", QUIESCENT, "arXiv:1011.3632 §4", sstab2),
)


class Findings(list):
    """The violations one :func:`check_execution` pass found.

    A plain list of :class:`OracleViolation` plus ``checks``: how many
    oracle applications the pass performed -- for a full (non-target)
    check, the one count behind both the campaign report's
    ``fuzz.oracle_checks`` and the traced counter of the same name --
    and, in arbitrary-init mode, the run's ``stabilization`` report.
    """

    checks = 0
    stabilization: Optional[StabilizationReport] = None


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


def _violation(oracle: Oracle, witness, direction=None, prefix_length=None):
    fields = (oracle.name, oracle.layer, oracle.scope, oracle.paper)
    return OracleViolation(*fields, witness or "", direction, prefix_length)


def check_execution(system, result, config=None, target=None) -> Findings:
    """Check one scenario result against every applicable oracle.

    ``system`` is the :class:`~repro.sim.network.DataLinkSystem` that
    produced ``result`` (a :class:`~repro.sim.runner.ScenarioResult`).
    Quiescent-scope oracles are skipped on non-quiescent runs; validity
    is skipped unless the behavior has a wake and no fail/crash events
    (it would report the environment's faults, not the protocol's).
    The returned :class:`Findings` counts the oracles actually applied.
    One pass over the behavior feeds the DL monitors, and one pass over
    the action list feeds the PL monitors of both directions.

    With ``target`` (an oracle name), only that oracle's monitors are
    built, so the findings are the full check's findings for that
    oracle -- the shrinker's question -- and nothing is traced.

    When ``config`` carries ``init_mode="arbitrary"``, the run started
    corrupted and *only* the stabilization oracles apply: the DL/PL
    safety family would blame the corrupted prefix on the protocol.
    """
    if (
        config is not None
        and getattr(config, "init_mode", "clean") == "arbitrary"
    ):
        return _check_stabilization(system, result, target)
    dl_judged, pl_judged = _judged(system, target, result.quiescent)
    feed_all([monitor for _, monitor, _ in dl_judged], result.behavior)
    feed_all([monitor for _, monitor, _ in pl_judged], result.fragment.actions)
    findings = Findings()
    for oracle, monitor, direction in dl_judged + pl_judged:
        if oracle.name == "valid" and not monitor.fault_free_with_wake:
            continue
        findings.checks += 1
        witness = monitor.violation()
        if witness is not None:
            prefix = monitor.first + 1 if oracle.scope == PREFIX else None
            findings.append(_violation(oracle, witness, direction, prefix))
    _count(findings, target)
    return findings


def _judged(system, target: Optional[str], quiescent: bool):
    """The monitors of the DL and PL oracles that apply to a run.

    Two lists of ``(oracle, monitor, direction)``: the DL monitors read
    the behavior, the PL monitors the action sequence of ``direction``.
    ``valid`` shares the DL monitors built before it.
    """
    t, r = system.t, system.r
    built: dict = {}  # oracle name -> monitor, shared with validity
    dl_judged = []
    for oracle in DL_ORACLES:
        if _applies(oracle, target, quiescent):
            if oracle.name == "valid":
                monitor = dl.ValidityMonitor(t, r, built)
            else:
                monitor = built[oracle.name] = oracle.judge(t, r)
            dl_judged.append((oracle, monitor, None))
    pl_judged = [
        (oracle, oracle.judge(src, dst), (src, dst))
        for src, dst, channel in (
            (t, r, system.channel_tr),
            (r, t, system.channel_rt),
        )
        for oracle in PL_ORACLES
        if _applies(oracle, target, quiescent)
        and (channel.fifo_only or not oracle.fifo_only)
    ]
    return dl_judged, pl_judged


def prefix_scoped(target: str, config=None) -> bool:
    """Does ``target`` name a prefix-scope oracle that judges the run?

    True for the DL/PL safety oracles, except under
    ``init_mode="arbitrary"``, where only the stabilization family
    judges.
    """
    if getattr(config, "init_mode", "clean") == "arbitrary":
        return False
    return any(
        oracle.name == target and oracle.scope == PREFIX
        for oracle in DL_ORACLES + PL_ORACLES
    )


class PrefixWatch:
    """One prefix-scope oracle's monitors as a run's stop predicate.

    Called on each action of a run in order (the ``stop_when`` of
    :meth:`~repro.sim.session.Session.run`), it feeds the target's DL
    monitors the external actions at their behavior index and its PL
    monitors every action at its run index, as :func:`check_execution`
    does, and holds once a monitor turns violated.  A prefix-scope
    predicate stays violated on every extension, so ``violated`` after
    the (possibly stopped) run is the verdict ``check_execution(...,
    target=target)`` reaches on the whole run.
    """

    def __init__(self, system, target: str):
        dl_judged, pl_judged = _judged(system, target, quiescent=False)
        signature = system.automaton.signature
        self._external = signature.inputs | signature.outputs
        self._dl = _by_key(monitor for _, monitor, _ in dl_judged)
        self._pl = _by_key(monitor for _, monitor, _ in pl_judged)
        self._behavior_index = 0
        self._index = 0
        self.violated = False

    def __call__(self, action) -> bool:
        key = (action.name, action.direction)
        if self._dl and key in self._external:
            index = self._behavior_index
            self._behavior_index = index + 1
            for monitor in self._dl.get(key, ()):
                monitor.observe(index, action)
                if monitor.violation() is not None:
                    self.violated = True
        index = self._index
        self._index = index + 1
        for monitor in self._pl.get(key, ()):
            monitor.observe(index, action)
            if monitor.violation() is not None:
                self.violated = True
        return self.violated


def _by_key(monitors) -> dict:
    """Action family -> the monitors that observe it."""
    table: dict = {}
    for monitor in monitors:
        for key in monitor.keys:
            table.setdefault(key, []).append(monitor)
    return table


def _applies(oracle: Oracle, target: Optional[str], quiescent: bool) -> bool:
    return (target is None or oracle.name == target) and (
        quiescent or oracle.scope != QUIESCENT
    )


def _count(findings: Findings, target: Optional[str]) -> None:
    """Emit a full pass's oracle counters (when tracing)."""
    tracer = current_tracer()
    if tracer.enabled and target is None:
        tracer.count("fuzz.oracle_checks", findings.checks)
        if findings:
            tracer.count("fuzz.oracle_violations", len(findings))


def _check_stabilization(system, result, target=None) -> Findings:
    """The arbitrary-init oracle pass: SSTAB-wf, then SSTAB1/SSTAB2.

    Computes the run's stabilization report once, judges SSTAB1/SSTAB2
    on it and carries it on the findings; a full check also emits the
    ``stab.time``/``stab.converged`` gauges.  A non-quiescent run
    violates SSTAB-wf (it wedged instead of recovering); the
    suffix-based oracles are quiescent-scoped, so they are skipped
    exactly like DL1/DL7/DL8 on truncated runs.
    """
    tracer = current_tracer()
    findings = Findings()
    report = stabilization_report(result.behavior, system.t, system.r)
    findings.stabilization = report
    if tracer.enabled and target is None:
        tracer.gauge("stab.time", report.time)
        tracer.gauge("stab.converged", 1 if report.converged else 0)
    for oracle in STAB_ORACLES:
        if not _applies(oracle, target, result.quiescent):
            continue
        findings.checks += 1
        if oracle.judge is None:
            if not result.quiescent:
                findings.append(
                    _violation(
                        oracle,
                        "the run did not quiesce from its corrupted "
                        "start within the step budget",
                    )
                )
            continue
        verdict = oracle.judge(report)
        if not verdict.holds:
            findings.append(_violation(oracle, verdict.witness))
    _count(findings, target)
    return findings


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

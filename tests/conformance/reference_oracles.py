"""The trace predicates and oracle pass as they were before monitors.

Every DL/PL predicate used to be a fresh scan of the whole sequence, and
``check_execution`` located each violated prefix-scope oracle's earliest
violating prefix by binary search.  The bodies below are those
predicates and that pass, kept verbatim as the differential reference
for the streaming monitors in :mod:`repro.datalink.properties` and
:mod:`repro.channels.properties` and for
:func:`repro.conformance.oracles.check_execution`
(``tests/conformance/test_monitors.py``).  Validity keeps its own
reference in ``tests/datalink/test_validity_monitor.py``.

Differences from the originals: the ``Oracle`` table is local, the
oracle pass emits no trace counters, and the pass returns a
:class:`repro.conformance.oracles.Findings` so results compare directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from repro.channels.actions import CRASH, FAIL, RECEIVE_PKT, SEND_PKT, WAKE
from repro.conformance.arbitrary import stabilization_report
from repro.conformance.oracles import (
    PREFIX,
    QUIESCENT,
    RUN,
    Findings,
    OracleViolation,
    stabilization_bound,
)
from repro.datalink.actions import RECEIVE_MSG, SEND_MSG
from repro.datalink.properties import is_valid_sequence
from repro.ioa.actions import Action
from repro.ioa.schedule_module import PropertyResult

Interval = Tuple[int, int]  # [start, end) in event indices

CheckFn = Callable[[Sequence[Action], str, str], PropertyResult]


# ----------------------------------------------------------------------
# Physical layer (Section 3)
# ----------------------------------------------------------------------


def alternation_well_formed(
    schedule: Sequence[Action], direction: Tuple[str, str]
) -> Optional[int]:
    """Check strict wake/fail alternation within each crash interval.

    Within every crash interval (delimited by ``crash`` events for
    ``direction``), the ``fail`` and ``wake`` events for ``direction``
    must alternate strictly, starting with ``wake``.  Returns the index
    of the first offending event, or None if well-formed.
    """
    expect_wake = True
    for index, action in enumerate(schedule):
        if action.key == (CRASH, direction):
            expect_wake = True
        elif action.key == (WAKE, direction):
            if not expect_wake:
                return index
            expect_wake = False
        elif action.key == (FAIL, direction):
            if expect_wake:
                return index
            expect_wake = True
    return None


def working_intervals(
    schedule: Sequence[Action], direction: Tuple[str, str]
) -> List[Interval]:
    """Working intervals for ``direction`` in a well-formed sequence.

    Each runs from just after a ``wake`` event to just before the next
    ``fail`` or ``crash`` event (or the end of the sequence), excluding
    the delimiting events themselves.
    """
    intervals: List[Interval] = []
    open_start: Optional[int] = None
    for index, action in enumerate(schedule):
        if action.key == (WAKE, direction):
            open_start = index + 1
        elif action.key in ((FAIL, direction), (CRASH, direction)):
            if open_start is not None:
                intervals.append((open_start, index))
                open_start = None
    if open_start is not None:
        intervals.append((open_start, len(schedule)))
    return intervals


def unbounded_working_interval(
    schedule: Sequence[Action], direction: Tuple[str, str]
) -> Optional[Interval]:
    """The unbounded working interval, if the sequence has one.

    For a finite sequence this is the suffix following a ``wake`` event
    with no later ``fail`` or ``crash`` event for ``direction`` -- the
    natural finite rendering of the paper's definition (the executions
    built by the engines are exactly of this shape).
    """
    last_wake: Optional[int] = None
    for index, action in enumerate(schedule):
        if action.key == (WAKE, direction):
            last_wake = index
        elif action.key in ((FAIL, direction), (CRASH, direction)):
            last_wake = None
    if last_wake is None:
        return None
    return (last_wake + 1, len(schedule))


def index_in_intervals(index: int, intervals: Iterable[Interval]) -> bool:
    return any(start <= index < end for start, end in intervals)


def pl_well_formed(
    schedule: Sequence[Action], src: str, dst: str
) -> PropertyResult:
    """Physical-layer well-formedness (Section 3)."""
    offending = alternation_well_formed(schedule, (src, dst))
    if offending is None:
        return PropertyResult.ok("PL-well-formed")
    return PropertyResult.violated(
        "PL-well-formed",
        f"event {offending} ({schedule[offending]}) breaks the strict "
        "wake/fail alternation",
    )


def pl1(schedule: Sequence[Action], src: str, dst: str) -> PropertyResult:
    """(PL1): every ``send_pkt`` event occurs in a working interval."""
    intervals = working_intervals(schedule, (src, dst))
    for index, action in enumerate(schedule):
        if action.key == (SEND_PKT, (src, dst)) and not index_in_intervals(
            index, intervals
        ):
            return PropertyResult.violated(
                "PL1",
                f"send_pkt at event {index} lies outside every working "
                "interval",
            )
    return PropertyResult.ok("PL1")


def pl2(schedule: Sequence[Action], src: str, dst: str) -> PropertyResult:
    """(PL2): every packet is sent at most once."""
    seen = {}
    for index, action in enumerate(schedule):
        if action.key == (SEND_PKT, (src, dst)):
            packet = action.payload
            if packet in seen:
                return PropertyResult.violated(
                    "PL2",
                    f"packet {packet} sent at events {seen[packet]} and "
                    f"{index}",
                )
            seen[packet] = index
    return PropertyResult.ok("PL2")


def pl3(schedule: Sequence[Action], src: str, dst: str) -> PropertyResult:
    """(PL3): every packet is received at most once."""
    seen = {}
    for index, action in enumerate(schedule):
        if action.key == (RECEIVE_PKT, (src, dst)):
            packet = action.payload
            if packet in seen:
                return PropertyResult.violated(
                    "PL3",
                    f"packet {packet} received at events {seen[packet]} "
                    f"and {index}",
                )
            seen[packet] = index
    return PropertyResult.ok("PL3")


def pl4(schedule: Sequence[Action], src: str, dst: str) -> PropertyResult:
    """(PL4): every receive is preceded by a send of the same packet."""
    sent = set()
    for index, action in enumerate(schedule):
        if action.key == (SEND_PKT, (src, dst)):
            sent.add(action.payload)
        elif action.key == (RECEIVE_PKT, (src, dst)):
            if action.payload not in sent:
                return PropertyResult.violated(
                    "PL4",
                    f"packet {action.payload} received at event {index} "
                    "without a preceding send",
                )
    return PropertyResult.ok("PL4")


def pl5(schedule: Sequence[Action], src: str, dst: str) -> PropertyResult:
    """(PL5), FIFO: delivered packets are received in send order.

    Assumes (PL2)/(PL3) so that each packet identifies unique send and
    receive events.
    """
    send_order = {}
    for index, action in enumerate(schedule):
        if action.key == (SEND_PKT, (src, dst)):
            send_order.setdefault(action.payload, index)
    last_send_index = -1
    last_packet = None
    for index, action in enumerate(schedule):
        if action.key == (RECEIVE_PKT, (src, dst)):
            packet = action.payload
            send_index = send_order.get(packet)
            if send_index is None:
                continue  # PL4's concern, not FIFO's
            if send_index < last_send_index:
                return PropertyResult.violated(
                    "PL5",
                    f"packet {packet} (sent at {send_index}) received at "
                    f"event {index} after {last_packet} (sent at "
                    f"{last_send_index}): out of FIFO order",
                )
            last_send_index = send_index
            last_packet = packet
    return PropertyResult.ok("PL5")


def pl6_finite_diagnostic(
    schedule: Sequence[Action], src: str, dst: str
) -> PropertyResult:
    """Finite-trace liveness diagnostic for quiescent executions.

    For an execution that has quiesced: if the trace ends in an unbounded
    working interval during which packets were sent but none was ever
    received, a fair infinite extension repeating such sends would
    violate (PL6).  Useful for flagging dead channels in simulation.
    """
    interval = unbounded_working_interval(schedule, (src, dst))
    if interval is None:
        return PropertyResult.ok("PL6-finite")
    start, end = interval
    sends = [
        i
        for i in range(start, end)
        if schedule[i].key == (SEND_PKT, (src, dst))
    ]
    if not sends:
        return PropertyResult.ok("PL6-finite")
    receives = [
        i
        for i in range(sends[0], end)
        if schedule[i].key == (RECEIVE_PKT, (src, dst))
    ]
    if receives:
        return PropertyResult.ok("PL6-finite")
    return PropertyResult.violated(
        "PL6-finite",
        f"{len(sends)} packets sent in the unbounded working interval "
        "but none received",
    )


# ----------------------------------------------------------------------
# Data-link layer (Section 4)
# ----------------------------------------------------------------------


def dl_well_formed(
    schedule: Sequence[Action], t: str, r: str
) -> PropertyResult:
    """Well-formedness for data-link sequences (Section 4).

    Strict wake/fail alternation starting with wake, per direction, with
    that direction's crash events as delimiters.
    """
    for direction, label in (((t, r), "transmitter"), ((r, t), "receiver")):
        offending = alternation_well_formed(schedule, direction)
        if offending is not None:
            return PropertyResult.violated(
                "DL-well-formed",
                f"{label} event {offending} ({schedule[offending]}) breaks "
                "the strict wake/fail alternation",
            )
    return PropertyResult.ok("DL-well-formed")


def dl1(schedule: Sequence[Action], t: str, r: str) -> PropertyResult:
    """(DL1): unbounded transmitter and receiver working intervals coexist."""
    transmitter = unbounded_working_interval(schedule, (t, r))
    receiver = unbounded_working_interval(schedule, (r, t))
    if (transmitter is None) == (receiver is None):
        return PropertyResult.ok("DL1")
    side = "transmitter" if transmitter is not None else "receiver"
    return PropertyResult.violated(
        "DL1",
        f"only the {side} side has an unbounded working interval",
    )


def dl2(schedule: Sequence[Action], t: str, r: str) -> PropertyResult:
    """(DL2): every send_msg occurs in a transmitter working interval."""
    intervals = working_intervals(schedule, (t, r))
    for index, action in enumerate(schedule):
        if action.key == (SEND_MSG, (t, r)) and not index_in_intervals(
            index, intervals
        ):
            return PropertyResult.violated(
                "DL2",
                f"send_msg at event {index} lies outside every transmitter "
                "working interval",
            )
    return PropertyResult.ok("DL2")


def dl3(schedule: Sequence[Action], t: str, r: str) -> PropertyResult:
    """(DL3): every message is sent at most once."""
    seen = {}
    for index, action in enumerate(schedule):
        if action.key == (SEND_MSG, (t, r)):
            message = action.payload
            if message in seen:
                return PropertyResult.violated(
                    "DL3",
                    f"message {message} sent at events {seen[message]} and "
                    f"{index}",
                )
            seen[message] = index
    return PropertyResult.ok("DL3")


def dl4(schedule: Sequence[Action], t: str, r: str) -> PropertyResult:
    """(DL4): every message is received at most once."""
    seen = {}
    for index, action in enumerate(schedule):
        if action.key == (RECEIVE_MSG, (t, r)):
            message = action.payload
            if message in seen:
                return PropertyResult.violated(
                    "DL4",
                    f"message {message} received at events {seen[message]} "
                    f"and {index}",
                )
            seen[message] = index
    return PropertyResult.ok("DL4")


def dl5(schedule: Sequence[Action], t: str, r: str) -> PropertyResult:
    """(DL5): every receive_msg is preceded by a send_msg of the message."""
    sent = set()
    for index, action in enumerate(schedule):
        if action.key == (SEND_MSG, (t, r)):
            sent.add(action.payload)
        elif action.key == (RECEIVE_MSG, (t, r)):
            if action.payload not in sent:
                return PropertyResult.violated(
                    "DL5",
                    f"message {action.payload} received at event {index} "
                    "without a preceding send_msg",
                )
    return PropertyResult.ok("DL5")


def dl6(schedule: Sequence[Action], t: str, r: str) -> PropertyResult:
    """(DL6), FIFO: delivered messages arrive in the order they were sent."""
    send_order = {}
    for index, action in enumerate(schedule):
        if action.key == (SEND_MSG, (t, r)):
            send_order.setdefault(action.payload, index)
    last_send_index = -1
    last_message = None
    for index, action in enumerate(schedule):
        if action.key == (RECEIVE_MSG, (t, r)):
            message = action.payload
            send_index = send_order.get(message)
            if send_index is None:
                continue  # DL5's concern
            if send_index < last_send_index:
                return PropertyResult.violated(
                    "DL6",
                    f"message {message} (sent at {send_index}) received at "
                    f"event {index} after {last_message} (sent at "
                    f"{last_send_index}): out of FIFO order",
                )
            last_send_index = send_index
            last_message = message
    return PropertyResult.ok("DL6")


def dl7(schedule: Sequence[Action], t: str, r: str) -> PropertyResult:
    """(DL7): no gaps within a single transmitter working interval.

    If ``m`` is sent before ``m'`` in the same working interval and
    ``m'`` is received, then ``m`` must be received too.
    """
    received = {
        action.payload
        for action in schedule
        if action.key == (RECEIVE_MSG, (t, r))
    }
    for start, end in working_intervals(schedule, (t, r)):
        interval_sends: List[Tuple[int, object]] = [
            (index, schedule[index].payload)
            for index in range(start, end)
            if schedule[index].key == (SEND_MSG, (t, r))
        ]
        # Walk backwards: once some later message is received, all
        # earlier ones must be.
        later_received: Optional[Tuple[int, object]] = None
        for index, message in reversed(interval_sends):
            if message in received:
                later_received = (index, message)
            elif later_received is not None:
                return PropertyResult.violated(
                    "DL7",
                    f"message {message} (sent at {index}) was lost while "
                    f"{later_received[1]} (sent at {later_received[0]}, "
                    "same working interval) was delivered",
                )
    return PropertyResult.ok("DL7")


def dl8(
    schedule: Sequence[Action], t: str, r: str, quiescent: bool = True
) -> PropertyResult:
    """(DL8) liveness, evaluated on a quiescent finite trace.

    Every message sent in the unbounded transmitter working interval must
    be received.  With ``quiescent=False`` the check is skipped (a
    non-quiescent finite prefix cannot witness a liveness violation).
    """
    if not quiescent:
        return PropertyResult.ok("DL8")
    interval = unbounded_working_interval(schedule, (t, r))
    if interval is None:
        return PropertyResult.ok("DL8")
    received = {
        action.payload
        for action in schedule
        if action.key == (RECEIVE_MSG, (t, r))
    }
    start, end = interval
    for index in range(start, end):
        action = schedule[index]
        if action.key == (SEND_MSG, (t, r)) and action.payload not in received:
            return PropertyResult.violated(
                "DL8",
                f"message {action.payload} sent at event {index} in the "
                "unbounded transmitter working interval was never received",
            )
    return PropertyResult.ok("DL8")


# ----------------------------------------------------------------------
# The oracle pass
# ----------------------------------------------------------------------


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
    Oracle("DL-well-formed", "dl", PREFIX, "§4", dl_well_formed),
    Oracle("DL1", "dl", QUIESCENT, "§4 (DL1)", dl1),
    Oracle("DL2", "dl", PREFIX, "§4 (DL2)", dl2),
    Oracle("DL3", "dl", PREFIX, "§4 (DL3)", dl3),
    Oracle("DL4", "dl", PREFIX, "§4 (DL4)", dl4),
    Oracle("DL5", "dl", PREFIX, "§4 (DL5)", dl5),
    Oracle("DL6", "dl", PREFIX, "§4 (DL6)", dl6),
    Oracle("DL7", "dl", QUIESCENT, "§4 (DL7)", dl7),
    Oracle(
        "DL8",
        "dl",
        QUIESCENT,
        "§4 (DL8)",
        lambda s, t, r: dl8(s, t, r, quiescent=True),
    ),
    Oracle("valid", "dl", QUIESCENT, "§8.1", is_valid_sequence),
)


PL_ORACLES: Tuple[Oracle, ...] = (
    Oracle("PL-well-formed", "pl", PREFIX, "§3", pl_well_formed),
    Oracle("PL1", "pl", PREFIX, "§3 (PL1)", pl1),
    Oracle("PL2", "pl", PREFIX, "§3 (PL2)", pl2),
    Oracle("PL3", "pl", PREFIX, "§3 (PL3)", pl3),
    Oracle("PL4", "pl", PREFIX, "§3 (PL4)", pl4),
    Oracle("PL5", "pl", PREFIX, "§3 (PL5)", pl5, fifo_only=True),
    Oracle(
        "PL6-finite", "pl", QUIESCENT, "§3 (PL6)", pl6_finite_diagnostic
    ),
)


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
    return violations


def _check_stabilization(system, result) -> Findings:
    """The arbitrary-init oracle pass: SSTAB-wf, then SSTAB1/SSTAB2.

    Emits the ``stab.time``/``stab.converged`` gauges alongside the
    verdicts.  A non-quiescent run violates SSTAB-wf (it wedged instead
    of recovering); the suffix-based oracles are quiescent-scoped, so
    they are skipped exactly like DL1/DL7/DL8 on truncated runs.
    """
    violations = Findings()
    behavior = result.behavior
    report = stabilization_report(behavior, system.t, system.r)
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
    return violations

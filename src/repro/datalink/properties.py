"""Data-link-layer trace properties (DL1)-(DL8) and validity (Sections 4, 8.1).

All predicates operate on finite sequences of data-link-layer actions for
an endpoint pair ``(t, r)`` and return structured
:class:`~repro.ioa.schedule_module.PropertyResult` values: each is the
one-shot form of its :class:`~repro.channels.properties.Monitor`
(:data:`MONITORS`).

Finite-trace semantics of the liveness property (DL8): the engines and
harnesses in this repository always evaluate (DL8) on *quiescent* traces
-- finite fair executions, which determine a unique "nothing further
happens" infinite extension.  On such traces (DL8) becomes checkable:
every ``send_msg`` occurring in the unbounded transmitter working
interval must have a matching ``receive_msg`` in the trace.
"""

from __future__ import annotations

from functools import partial
from typing import Iterable, List, Optional, Sequence, Tuple

from ..ioa.actions import Action
from ..ioa.schedule_module import PropertyResult
from ..channels.actions import CRASH, FAIL, WAKE
from ..channels.properties import (
    AlternationMonitor,
    AtMostOnceMonitor,
    Monitor,
    SendOrderMonitor,
    SentBeforeMonitor,
    WorkingIntervalMonitor,
    status_keys,
)
from .actions import RECEIVE_MSG, SEND_MSG


class DL1Monitor(Monitor):
    """(DL1): unbounded transmitter and receiver working intervals coexist."""

    name = "DL1"

    def __init__(self, t: str, r: str):
        self._awake = {(t, r): False, (r, t): False}
        self.keys = status_keys((t, r)) | status_keys((r, t))

    def observe(self, index: int, action: Action) -> None:
        self._awake[action.direction] = action.name == WAKE

    def violation(self) -> Optional[str]:
        transmitter, receiver = self._awake.values()
        if transmitter == receiver:
            return None
        side = "transmitter" if transmitter else "receiver"
        return f"only the {side} side has an unbounded working interval"


class DL7Monitor(Monitor):
    """(DL7): no gaps within a single transmitter working interval.

    Keeps the sends of every working interval (as
    :func:`~repro.channels.properties.working_intervals` delimits them)
    and the received messages; the verdict reads them at the end.
    """

    name = "DL7"

    def __init__(self, t: str, r: str):
        d = (t, r)
        self.keys = status_keys(d) | {(SEND_MSG, d), (RECEIVE_MSG, d)}
        self._received: set = set()
        self._closed: List[List[Tuple[int, object]]] = []
        self._open: Optional[List[Tuple[int, object]]] = None

    def observe(self, index: int, action: Action) -> None:
        name = action.name
        if name == RECEIVE_MSG:
            self._received.add(action.payload)
        elif name == SEND_MSG:
            if self._open is not None:
                self._open.append((index, action.payload))
        elif name == WAKE:
            self._open = []
        elif self._open is not None:
            self._closed.append(self._open)
            self._open = None

    def violation(self) -> Optional[str]:
        intervals = self._closed + ([self._open] if self._open is not None else [])
        for interval_sends in intervals:
            # Walk backwards: once some later message is received, all
            # earlier ones must be.
            later_received: Optional[Tuple[int, object]] = None
            for index, message in reversed(interval_sends):
                if message in self._received:
                    later_received = (index, message)
                elif later_received is not None:
                    return (
                        f"message {message} (sent at {index}) was lost while "
                        f"{later_received[1]} (sent at {later_received[0]}, "
                        "same working interval) was delivered"
                    )
        return None


class DL8Monitor(DL7Monitor):
    """(DL8), quiescent: every send of the unbounded interval is received."""

    name = "DL8"
    #: The open interval last judged and its first unreceived send:
    #: receipts are kept for good, so the next verdict resumes there.
    _judged: Sequence = ()
    _cursor = 0

    def violation(self) -> Optional[str]:
        sends = self._open or ()
        if sends is not self._judged:  # another interval opened
            self._judged, self._cursor = sends, 0
        while self._cursor < len(sends) and sends[self._cursor][1] in self._received:
            self._cursor += 1
        if self._cursor == len(sends):
            return None
        index, message = sends[self._cursor]
        return (
            f"message {message} sent at event {index} in the "
            "unbounded transmitter working interval was never received"
        )


# ----------------------------------------------------------------------
# Validity (Section 8.1)
# ----------------------------------------------------------------------


class ValidityMonitor(Monitor):
    """Validity of a growing data-link sequence (Section 8.1).

    ``beta`` is valid iff (1) it is well-formed, (2) it satisfies (DL1)-
    (DL5) and (DL8), and (3) a wake event, but no fail or crash events,
    occurs in it.  The witness names the first failing condition: a
    fail/crash event, no wake, then the first failing predicate of (1)
    and (2).  Feed the sequence in chunks with :meth:`feed`; each event
    is looked at once, and the first fail or crash decides the verdict
    for good, so the monitor stops there.  ``parts`` may map names of
    (1) and (2) to monitors fed elsewhere on the same sequence, as in
    ``check_execution``; the monitor builds and feeds the rest itself.
    """

    name = "valid"

    def __init__(self, t: str, r: str, parts=None) -> None:
        shared = parts or {}
        names = ("DL-well-formed", "DL1", "DL2", "DL3", "DL4", "DL5", "DL8")
        self._parts = [shared.get(n) or MONITORS[n](t, r) for n in names]
        self._table: dict = {}
        for name, part in zip(names, self._parts):
            if name not in shared:
                for key in part.keys:
                    self._table.setdefault(key, []).append(part.observe)
        self.keys = status_keys((t, r)) | status_keys((r, t)) | set(self._table)
        self._length = 0
        self._fault: Optional[int] = None  # first fail/crash event
        self._has_wake = False

    @property
    def fault_free_with_wake(self) -> bool:
        """Condition (3): a wake, and no fail or crash, was fed."""
        return self._fault is None and self._has_wake

    def feed(self, actions: Iterable[Action]) -> None:
        """Append ``actions`` to the sequence being judged."""
        index = self._length
        for action in actions:
            self.observe(index, action)
            index += 1
        self._length = index

    def observe(self, index: int, action: Action) -> None:
        """Append one event, the sequence's ``index``-th."""
        if self._fault is not None:
            return
        name = action.name
        if name == FAIL or name == CRASH:
            self._fault = index
            return
        if name == WAKE:
            self._has_wake = True
        for observe in self._table.get((name, action.direction), ()):
            observe(index, action)

    def violation(self) -> Optional[str]:
        if self._fault is not None:
            return f"fail/crash event at {self._fault}: valid sequences contain none"
        if not self._has_wake:
            return "no wake event occurs"
        for part in self._parts:
            witness = part.violation()
            if witness is not None:
                return f"{part.name} fails: {witness}"
        return None


#: Each predicate's monitor for the endpoints ``(t, r)``, by name.
MONITORS = {
    "DL-well-formed": partial(
        AlternationMonitor, "DL-well-formed", ("transmitter ", "receiver ")
    ),
    "DL1": DL1Monitor,
    "DL2": partial(WorkingIntervalMonitor, "DL2", SEND_MSG, "transmitter "),
    "DL3": partial(AtMostOnceMonitor, "DL3", SEND_MSG, "message", "sent"),
    "DL4": partial(AtMostOnceMonitor, "DL4", RECEIVE_MSG, "message", "received"),
    "DL5": partial(
        SentBeforeMonitor, "DL5", SEND_MSG, RECEIVE_MSG, "message", "send_msg"
    ),
    "DL6": partial(SendOrderMonitor, "DL6", SEND_MSG, RECEIVE_MSG, "message"),
    "DL7": DL7Monitor,
    "DL8": DL8Monitor,
    "valid": ValidityMonitor,
}


def dl_well_formed(
    schedule: Sequence[Action], t: str, r: str
) -> PropertyResult:
    """Well-formedness for data-link sequences (Section 4).

    Strict wake/fail alternation starting with wake, per direction, with
    that direction's crash events as delimiters.
    """
    return MONITORS["DL-well-formed"](t, r).judge(schedule)


def dl1(schedule: Sequence[Action], t: str, r: str) -> PropertyResult:
    """(DL1): unbounded transmitter and receiver working intervals coexist."""
    return DL1Monitor(t, r).judge(schedule)


def dl2(schedule: Sequence[Action], t: str, r: str) -> PropertyResult:
    """(DL2): every send_msg occurs in a transmitter working interval."""
    return MONITORS["DL2"](t, r).judge(schedule)


def dl3(schedule: Sequence[Action], t: str, r: str) -> PropertyResult:
    """(DL3): every message is sent at most once."""
    return MONITORS["DL3"](t, r).judge(schedule)


def dl4(schedule: Sequence[Action], t: str, r: str) -> PropertyResult:
    """(DL4): every message is received at most once."""
    return MONITORS["DL4"](t, r).judge(schedule)


def dl5(schedule: Sequence[Action], t: str, r: str) -> PropertyResult:
    """(DL5): every receive_msg is preceded by a send_msg of the message."""
    return MONITORS["DL5"](t, r).judge(schedule)


def dl6(schedule: Sequence[Action], t: str, r: str) -> PropertyResult:
    """(DL6), FIFO: delivered messages arrive in the order they were sent."""
    return MONITORS["DL6"](t, r).judge(schedule)


def dl7(schedule: Sequence[Action], t: str, r: str) -> PropertyResult:
    """(DL7): no gaps within a single transmitter working interval.

    If ``m`` is sent before ``m'`` in the same working interval and
    ``m'`` is received, then ``m`` must be received too.
    """
    return DL7Monitor(t, r).judge(schedule)


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
    return DL8Monitor(t, r).judge(schedule)


def is_valid_sequence(
    schedule: Iterable[Action], t: str, r: str
) -> PropertyResult:
    """Validity of a data-link action sequence (Section 8.1).

    The one-shot form of :class:`ValidityMonitor`, which documents the
    definition.
    """
    monitor = ValidityMonitor(t, r)
    monitor.feed(schedule)
    return monitor.result()

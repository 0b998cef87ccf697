"""Data-link-layer trace properties (DL1)-(DL8) and validity (Sections 4, 8.1).

All predicates operate on finite sequences of data-link-layer actions for
an endpoint pair ``(t, r)`` and return structured
:class:`~repro.ioa.schedule_module.PropertyResult` values.

Finite-trace semantics of the liveness property (DL8): the engines and
harnesses in this repository always evaluate (DL8) on *quiescent* traces
-- finite fair executions, which determine a unique "nothing further
happens" infinite extension.  On such traces (DL8) becomes checkable:
every ``send_msg`` occurring in the unbounded transmitter working
interval must have a matching ``receive_msg`` in the trace.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Iterable, List, Optional, Sequence, Tuple

from ..ioa.actions import Action
from ..ioa.schedule_module import PropertyResult
from ..channels.actions import CRASH, FAIL, WAKE
from ..channels.properties import (
    alternation_well_formed,
    index_in_intervals,
    unbounded_working_interval,
    working_intervals,
)
from .actions import RECEIVE_MSG, SEND_MSG


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
# Validity (Section 8.1)
# ----------------------------------------------------------------------


class ValidityMonitor:
    """Validity of a growing data-link sequence (Section 8.1).

    ``beta`` is valid iff (1) it is well-formed, (2) it satisfies (DL1)-
    (DL5) and (DL8), and (3) a wake event, but no fail or crash events,
    occurs in it.  Since there are no fail/crash events, the working
    intervals are unbounded and (DL8) reduces to "every message sent is
    received" (Lemma 8.1) -- evaluated here on the quiescent reading.

    Feed the sequence in any number of chunks with :meth:`feed`;
    :meth:`result` judges everything fed so far, exactly as
    :func:`is_valid_sequence` judges the whole sequence.  Each event is
    looked at once, so checking after every chunk costs the length of
    the chunk, not of the sequence.

    The first fail or crash event decides the verdict for good, so the
    monitor stops there.  Before it, each direction's working interval
    runs from its first wake to the end: a second wake in the same
    direction breaks well-formedness, which outranks every (DL) check
    below it, so (DL2) and (DL8) need only the first wake.
    """

    def __init__(self, t: str, r: str) -> None:
        self._forward = (t, r)
        self._backward = (r, t)
        self._length = 0
        self._fault: Optional[int] = None  # first fail/crash event
        self._has_wake = False
        self._wake = {self._forward: None, self._backward: None}
        self._misordered = {self._forward: None, self._backward: None}
        self._early_send: Optional[int] = None  # (DL2)
        self._sent: dict = {}  # message -> first send event
        self._received: dict = {}  # message -> first receive event
        self._resent: Optional[Tuple[object, int, int]] = None  # (DL3)
        self._rereceived: Optional[Tuple[object, int, int]] = None  # (DL4)
        self._unsent: Optional[Tuple[object, int]] = None  # (DL5)
        # (DL8): sends in event order; received ones are dropped lazily.
        self._awaiting: Deque[Tuple[int, object]] = deque()

    def feed(self, actions: Iterable[Action]) -> None:
        """Append ``actions`` to the sequence being judged."""
        if self._fault is not None:
            return
        forward = self._forward
        sent = self._sent
        received = self._received
        index = self._length
        for action in actions:
            name = action.name
            if name == SEND_MSG:
                if action.direction == forward:
                    message = action.payload
                    if self._wake[forward] is None and self._early_send is None:
                        self._early_send = index
                    first = sent.get(message)
                    if first is None:
                        sent[message] = index
                    elif self._resent is None:
                        self._resent = (message, first, index)
                    if message not in received:
                        self._awaiting.append((index, message))
            elif name == RECEIVE_MSG:
                if action.direction == forward:
                    message = action.payload
                    first = received.get(message)
                    if first is None:
                        received[message] = index
                    elif self._rereceived is None:
                        self._rereceived = (message, first, index)
                    if self._unsent is None and message not in sent:
                        self._unsent = (message, index)
            elif name == WAKE:
                self._has_wake = True
                direction = action.direction
                if direction in self._wake:
                    if self._wake[direction] is None:
                        self._wake[direction] = index
                    elif self._misordered[direction] is None:
                        self._misordered[direction] = (index, action)
            elif name == FAIL or name == CRASH:
                self._fault = index
                break
            index += 1
        self._length = index

    def result(self) -> PropertyResult:
        """The verdict on everything fed so far."""
        if self._fault is not None:
            return PropertyResult.violated(
                "valid",
                f"fail/crash event at {self._fault}: valid sequences "
                "contain none",
            )
        if not self._has_wake:
            return PropertyResult.violated("valid", "no wake event occurs")
        failure = self._first_failure()
        if failure is None:
            return PropertyResult.ok("valid")
        name, witness = failure
        return PropertyResult.violated("valid", f"{name} fails: {witness}")

    def _first_failure(self) -> Optional[Tuple[str, str]]:
        """The first failing check in ``dl_well_formed``, (DL1)-(DL5),
        (DL8) order, as (name, witness); None if all hold."""
        for direction, label in (
            (self._forward, "transmitter"),
            (self._backward, "receiver"),
        ):
            misordered = self._misordered[direction]
            if misordered is not None:
                index, action = misordered
                return (
                    "DL-well-formed",
                    f"{label} event {index} ({action}) breaks the strict "
                    "wake/fail alternation",
                )
        transmitter = self._wake[self._forward] is not None
        if transmitter != (self._wake[self._backward] is not None):
            side = "transmitter" if transmitter else "receiver"
            return (
                "DL1",
                f"only the {side} side has an unbounded working interval",
            )
        if self._early_send is not None:
            return (
                "DL2",
                f"send_msg at event {self._early_send} lies outside every "
                "transmitter working interval",
            )
        if self._resent is not None:
            message, first, index = self._resent
            return ("DL3", f"message {message} sent at events {first} and {index}")
        if self._rereceived is not None:
            message, first, index = self._rereceived
            return (
                "DL4",
                f"message {message} received at events {first} and {index}",
            )
        if self._unsent is not None:
            message, index = self._unsent
            return (
                "DL5",
                f"message {message} received at event {index} without a "
                "preceding send_msg",
            )
        # Reached with (DL1) and (DL2) holding: every send follows the
        # transmitter's wake, so every send lies in its unbounded interval.
        awaiting = self._awaiting
        while awaiting and awaiting[0][1] in self._received:
            awaiting.popleft()
        if awaiting:
            index, message = awaiting[0]
            return (
                "DL8",
                f"message {message} sent at event {index} in the unbounded "
                "transmitter working interval was never received",
            )
        return None


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

"""Physical-layer trace properties (paper, Section 3).

Executable forms of well-formedness, working intervals and properties
(PL1)-(PL6) over finite sequences of physical-layer actions.  Every
predicate is a :class:`Monitor` (shared with the data-link properties
of the same shape) whose verdict is a
:class:`~repro.ioa.schedule_module.PropertyResult` carrying a violation
witness when it fails; :func:`pl1` etc. are its one-shot forms.

Liveness caveat: (PL6) constrains only infinite behaviors ("if infinitely
many send events occur ...").  On a finite sequence its hypothesis is
never met, so the checker returns success; the analysis layer offers a
stronger finite-trace diagnostic for quiescent executions.
"""

from __future__ import annotations

from functools import lru_cache, partial
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from ..ioa.actions import Action
from ..ioa.schedule_module import PropertyResult
from .actions import CRASH, FAIL, RECEIVE_PKT, SEND_PKT, WAKE

Interval = Tuple[int, int]  # [start, end) in event indices
Direction = Tuple[str, str]
Key = Tuple[str, Direction]  # an action family: (name, direction)


# ----------------------------------------------------------------------
# Interval machinery (shared with the data-link layer)
# ----------------------------------------------------------------------


def crash_intervals(
    schedule: Sequence[Action], crash_direction: Tuple[str, str]
) -> List[Interval]:
    """Maximal contiguous index ranges containing no crash event.

    The crash events themselves belong to no interval; intervals are
    returned as half-open ``[start, end)`` ranges and may be empty.
    """
    intervals: List[Interval] = []
    start = 0
    for index, action in enumerate(schedule):
        if action.key == (CRASH, crash_direction):
            intervals.append((start, index))
            start = index + 1
    intervals.append((start, len(schedule)))
    return intervals


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


@lru_cache(maxsize=None)
def status_keys(direction: Direction) -> FrozenSet[Key]:
    """The ``wake``/``fail``/``crash`` families of ``direction``."""
    return frozenset((name, direction) for name in (WAKE, FAIL, CRASH))


# ----------------------------------------------------------------------
# Monitors
# ----------------------------------------------------------------------


class Monitor:
    """A trace predicate judged one event at a time.

    ``observe(index, action)`` takes every event of the families in
    ``keys`` in order, and no other; :meth:`violation` is the witness
    against all observed so far (None if the predicate holds).  A
    prefix-monotone predicate keeps its ``witness`` and sets ``first``
    to the event at which it became violated: ``first + 1`` is the
    length of the shortest violating prefix.
    """

    name = ""
    keys: FrozenSet[Key] = frozenset()
    first: Optional[int] = None
    witness: Optional[str] = None

    def violation(self) -> Optional[str]:
        return self.witness

    def result(self) -> PropertyResult:
        witness = self.violation()
        if witness is None:
            return PropertyResult.ok(self.name)
        return PropertyResult.violated(self.name, witness)

    def judge(self, schedule: Iterable[Action]) -> PropertyResult:
        """The verdict on ``schedule`` (the one-shot form)."""
        feed_all((self,), schedule)
        return self.result()

    def _violated(self, index: int, witness: str) -> None:
        self.witness = witness
        if self.first is None:
            self.first = index


def feed_all(monitors: Iterable[Monitor], schedule: Iterable[Action]) -> None:
    """Feed ``schedule`` to ``monitors`` in one pass, by action family."""
    table: Dict[Key, List] = {}
    for monitor in monitors:
        for key in monitor.keys:
            table.setdefault(key, []).append(monitor.observe)
    if not table:
        return
    get = table.get
    for index, action in enumerate(schedule):
        observers = get((action.name, action.direction))
        if observers is not None:
            for observe in observers:
                observe(index, action)


class AlternationMonitor(Monitor):
    """Well-formedness: strict wake/fail alternation per direction.

    Within every crash interval (delimited by ``crash`` events for the
    direction), the direction's ``fail`` and ``wake`` events must
    alternate strictly, starting with ``wake``.  ``labels`` start the
    witnesses of ``a -> b`` and (if given) ``b -> a``.  The witness
    prefers ``a -> b`` wherever it offends, while ``first`` is the
    earliest offending event of either direction.
    """

    def __init__(self, name: str, labels: Sequence[str], a: str, b: str):
        self.name = name
        self._labels = dict(zip(((a, b), (b, a)), labels))
        self._expect_wake = dict.fromkeys(self._labels, True)
        self._offended: set = set()
        self.keys = frozenset().union(*map(status_keys, self._labels))

    def observe(self, index: int, action: Action) -> None:
        direction = action.direction
        if direction in self._offended:
            return
        name = action.name
        if name == CRASH:
            self._expect_wake[direction] = True
        elif (name == WAKE) == self._expect_wake[direction]:
            self._expect_wake[direction] = name == FAIL
        else:
            self._offended.add(direction)
            if self.witness is None or direction == next(iter(self._labels)):
                self._violated(
                    index,
                    f"{self._labels[direction]}event {index} ({action}) "
                    "breaks the strict wake/fail alternation",
                )


class WorkingIntervalMonitor(Monitor):
    """Every ``send`` event of ``a -> b`` lies in a working interval.

    (DL2), (PL1).  A send while no interval is open is orphaned at
    once.  The sends of an open interval are orphaned when a second
    ``wake`` reopens it, because :func:`working_intervals` drops an
    interval that never closed.  Either way the first send orphaned is
    the earliest, so it is the witness and the verdict is final.
    """

    def __init__(self, name: str, send: str, where: str, a: str, b: str):
        self.name = name
        self.keys = status_keys((a, b)) | {(send, (a, b))}
        self._where = f"{send} at event {{}} lies outside every {where}working interval"
        self._open = False
        self._pending: Optional[int] = None  # first send of the open interval

    def observe(self, index: int, action: Action) -> None:
        if self.witness is not None:
            return
        name = action.name
        orphan = None
        if name == WAKE:
            orphan, self._open, self._pending = self._pending, True, None
        elif name == FAIL or name == CRASH:
            self._open, self._pending = False, None
        elif not self._open:
            orphan = index
        elif self._pending is None:
            self._pending = index
        if orphan is not None:
            self._violated(index, self._where.format(orphan))


class AtMostOnceMonitor(Monitor):
    """(DL3), (DL4), (PL2), (PL3): no payload occurs twice in a family."""

    def __init__(self, name: str, event: str, noun: str, verb: str, a: str, b: str):
        self.name = name
        self.keys = frozenset({(event, (a, b))})
        self._what = f"{noun} {{}} {verb} at events {{}} and {{}}"
        self._seen: Dict[object, int] = {}

    def observe(self, index: int, action: Action) -> None:
        if self.witness is None:
            seen = self._seen.setdefault(action.payload, index)
            if seen != index:
                self._violated(index, self._what.format(action.payload, seen, index))


class SentBeforeMonitor(Monitor):
    """(DL5), (PL4): every receive is preceded by a send of its payload."""

    def __init__(
        self, name: str, send: str, receive: str, noun: str, word: str, a: str, b: str
    ):
        self.name = name
        self.keys = frozenset({(send, (a, b)), (receive, (a, b))})
        self._send = send
        self._what = (
            f"{noun} {{}} received at event {{}} without a preceding {word}"
        )
        self._sent: set = set()

    def observe(self, index: int, action: Action) -> None:
        if self.witness is not None:
            return
        if action.name == self._send:
            self._sent.add(action.payload)
        elif action.payload not in self._sent:
            self._violated(index, self._what.format(action.payload, index))


class SendOrderMonitor(Monitor):
    """(DL6), (PL5), FIFO: receives follow their payloads' first sends.

    Receives are ordered by the first send of their payload anywhere in
    the sequence; a receive whose payload is never sent is skipped
    ((DL5)/(PL4)'s concern).  A send that comes after a receive of its
    payload puts that receive into the order after the fact, which can
    create an earlier inversion: on that rare path the receive chain is
    recomputed.
    """

    def __init__(self, name: str, send: str, receive: str, noun: str, a: str, b: str):
        self.name = name
        self.keys = frozenset({(send, (a, b)), (receive, (a, b))})
        self._send = send
        self._what = (
            f"{noun} {{}} (sent at {{}}) received at event {{}} after {{}} "
            "(sent at {}): out of FIFO order"
        )
        self._sent: Dict[object, int] = {}  # payload -> its first send
        self._receives: List[Tuple[int, object]] = []
        self._unsent: set = set()  # received payloads not sent yet
        self._last: Tuple[int, object] = (-1, None)  # chain end: (send, payload)

    def observe(self, index: int, action: Action) -> None:
        payload = action.payload
        if action.name != self._send:
            self._receives.append((index, payload))
            sent = self._sent.get(payload)
            if sent is None:
                self._unsent.add(payload)
            elif self.witness is None:
                self._extend(index, index, payload, sent)
        elif payload not in self._sent:
            self._sent[payload] = index
            if payload in self._unsent:
                self._unsent.discard(payload)
                self._last, self.witness = (-1, None), None
                for receive, received in self._receives:
                    if received in self._sent:
                        self._extend(index, receive, received, self._sent[received])
                        if self.witness is not None:
                            break

    def _extend(self, at: int, index: int, payload: object, sent: int) -> None:
        """Append the receive at ``index`` of ``payload``, first sent at
        ``sent``, to the chain."""
        last_sent, last_payload = self._last
        if sent < last_sent:
            witness = self._what.format(payload, sent, index, last_payload, last_sent)
            self._violated(at, witness)
        else:
            self._last = (sent, payload)


class PL6FiniteMonitor(Monitor):
    """The finite (PL6) diagnostic; see :func:`pl6_finite_diagnostic`."""

    name = "PL6-finite"

    def __init__(self, src: str, dst: str):
        d = (src, dst)
        self.keys = status_keys(d) | {(SEND_PKT, d), (RECEIVE_PKT, d)}
        self._awake = False
        self._sends = 0  # sends in the unbounded working interval
        self._received = False  # a receive after the first of them

    def observe(self, index: int, action: Action) -> None:
        name = action.name
        if name == WAKE:
            self._awake, self._sends, self._received = True, 0, False
        elif name == FAIL or name == CRASH:
            self._awake = False
        elif name == SEND_PKT:
            if self._awake:
                self._sends += 1
        elif self._sends:
            self._received = True

    def violation(self) -> Optional[str]:
        if not self._awake or not self._sends or self._received:
            return None
        return (
            f"{self._sends} packets sent in the unbounded working interval "
            "but none received"
        )


#: Each predicate's monitor on the channel ``src -> dst``, by name.
MONITORS = {
    "PL-well-formed": partial(AlternationMonitor, "PL-well-formed", ("",)),
    "PL1": partial(WorkingIntervalMonitor, "PL1", SEND_PKT, ""),
    "PL2": partial(AtMostOnceMonitor, "PL2", SEND_PKT, "packet", "sent"),
    "PL3": partial(AtMostOnceMonitor, "PL3", RECEIVE_PKT, "packet", "received"),
    "PL4": partial(
        SentBeforeMonitor, "PL4", SEND_PKT, RECEIVE_PKT, "packet", "send"
    ),
    "PL5": partial(SendOrderMonitor, "PL5", SEND_PKT, RECEIVE_PKT, "packet"),
    "PL6-finite": PL6FiniteMonitor,
}


# ----------------------------------------------------------------------
# Well-formedness and (PL1)-(PL6)
# ----------------------------------------------------------------------


def pl_well_formed(
    schedule: Sequence[Action], src: str, dst: str
) -> PropertyResult:
    """Physical-layer well-formedness (Section 3)."""
    return MONITORS["PL-well-formed"](src, dst).judge(schedule)


def pl1(schedule: Sequence[Action], src: str, dst: str) -> PropertyResult:
    """(PL1): every ``send_pkt`` event occurs in a working interval."""
    return MONITORS["PL1"](src, dst).judge(schedule)


def pl2(schedule: Sequence[Action], src: str, dst: str) -> PropertyResult:
    """(PL2): every packet is sent at most once."""
    return MONITORS["PL2"](src, dst).judge(schedule)


def pl3(schedule: Sequence[Action], src: str, dst: str) -> PropertyResult:
    """(PL3): every packet is received at most once."""
    return MONITORS["PL3"](src, dst).judge(schedule)


def pl4(schedule: Sequence[Action], src: str, dst: str) -> PropertyResult:
    """(PL4): every receive is preceded by a send of the same packet."""
    return MONITORS["PL4"](src, dst).judge(schedule)


def pl5(schedule: Sequence[Action], src: str, dst: str) -> PropertyResult:
    """(PL5), FIFO: delivered packets are received in send order.

    Assumes (PL2)/(PL3) so that each packet identifies unique send and
    receive events.
    """
    return MONITORS["PL5"](src, dst).judge(schedule)


def pl6(schedule: Sequence[Action], src: str, dst: str) -> PropertyResult:
    """(PL6) liveness: vacuous over finite sequences.

    The property's hypothesis requires infinitely many ``send_pkt``
    events, which no finite sequence has; see
    :func:`pl6_finite_diagnostic` for the quiescent-trace analogue.
    """
    return PropertyResult.ok("PL6")


def pl6_finite_diagnostic(
    schedule: Sequence[Action], src: str, dst: str
) -> PropertyResult:
    """Finite-trace liveness diagnostic for quiescent executions.

    For an execution that has quiesced: if the trace ends in an unbounded
    working interval during which packets were sent but none was ever
    received, a fair infinite extension repeating such sends would
    violate (PL6).  Useful for flagging dead channels in simulation.
    """
    return PL6FiniteMonitor(src, dst).judge(schedule)

"""Differential tests: the validity monitor against the per-property checkers.

``ValidityMonitor`` (and its one-shot form ``is_valid_sequence``) must
return exactly the ``PropertyResult`` -- verdict, name and witness --
of the definition spelled out from the independent checkers: no fail or
crash event, some wake event, then ``dl_well_formed``, (DL1)-(DL5) and
(DL8), first failure wins.  The checkers stay the reference because
``datalink/modules.py`` builds the WDL module from them.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.alphabets import Message
from repro.channels import crash, fail, wake
from repro.channels.actions import CRASH, FAIL, WAKE
from repro.datalink import (
    ValidityMonitor,
    dl1,
    dl2,
    dl3,
    dl4,
    dl5,
    dl8,
    dl_well_formed,
    is_valid_sequence,
    receive_msg,
    send_msg,
)
from repro.datalink.properties import DL8Monitor
from repro.ioa.schedule_module import PropertyResult

T, R = "t", "r"
MESSAGES = [Message(i) for i in range(4)]


def reference_validity(schedule, t, r) -> PropertyResult:
    """Section 8.1 validity as the conjunction of the checkers."""
    has_wake = False
    for index, action in enumerate(schedule):
        if action.name == WAKE:
            has_wake = True
        elif action.name in (FAIL, CRASH):
            return PropertyResult.violated(
                "valid",
                f"fail/crash event at {index}: valid sequences contain none",
            )
    if not has_wake:
        return PropertyResult.violated("valid", "no wake event occurs")
    for check in (dl_well_formed, dl1, dl2, dl3, dl4, dl5, dl8):
        result = check(schedule, t, r)
        if not result.holds:
            return PropertyResult.violated(
                "valid", f"{result.name} fails: {result.witness}"
            )
    return PropertyResult.ok("valid")


#: The alphabet, weighted so that long well-formed prefixes are common
#: and every check gets to be the first failure.
ALPHABET = (
    [wake(T, R), wake(R, T)] * 2
    + [fail(T, R), fail(R, T), crash(T, R), crash(R, T), wake(T, "x")]
    + [send_msg(T, R, m) for m in MESSAGES] * 3
    + [receive_msg(T, R, m) for m in MESSAGES] * 3
    + [send_msg(R, T, MESSAGES[0]), receive_msg(R, T, MESSAGES[1])]
)


def random_schedule(rng: random.Random):
    prologue = [wake(T, R), wake(R, T)][: rng.randrange(3)]
    rng.shuffle(prologue)
    body = [rng.choice(ALPHABET) for _ in range(rng.randrange(14))]
    return prologue + body


def random_chunks(rng: random.Random, schedule):
    start = 0
    while start < len(schedule):
        stop = start + rng.randrange(5)
        yield schedule[start:stop]
        start = stop
    yield []


def assert_agrees(schedule, rng: random.Random) -> None:
    for n in range(len(schedule) + 1):
        assert is_valid_sequence(schedule[:n], T, R) == reference_validity(
            schedule[:n], T, R
        ), schedule[:n]
    monitor = ValidityMonitor(T, R)
    fed = []
    for chunk in random_chunks(rng, schedule):
        monitor.feed(chunk)
        fed.extend(chunk)
        assert monitor.result() == reference_validity(fed, T, R), fed


def test_random_schedules_agree_at_every_prefix():
    rng = random.Random(8)
    outcomes = set()
    for _ in range(1500):
        schedule = random_schedule(rng)
        assert_agrees(schedule, rng)
        result = reference_validity(schedule, T, R)
        outcomes.add(result.witness.split(" ")[0] if result.witness else "ok")
    # Every branch of the definition was the deciding one somewhere.
    assert outcomes >= {
        "ok", "fail/crash", "no", "DL-well-formed", "DL1", "DL2", "DL3",
        "DL4", "DL5", "DL8",
    }


def test_dl8_incremental_verdict_agrees_at_every_prefix():
    """DL8's verdict resumes from its cursor: asked after every event,
    it must still equal the one-shot ``dl8`` on that prefix."""
    rng = random.Random(32)
    for _ in range(1500):
        schedule = random_schedule(rng)
        monitor = DL8Monitor(T, R)
        for index, action in enumerate(schedule):
            if (action.name, action.direction) in monitor.keys:
                monitor.observe(index, action)
            assert monitor.result() == dl8(schedule[: index + 1], T, R), (
                schedule[: index + 1]
            )


@given(
    st.lists(st.sampled_from(ALPHABET), max_size=16),
    st.randoms(use_true_random=False),
)
@settings(max_examples=300, deadline=None)
def test_hypothesis_schedules_agree(schedule, rng):
    assert_agrees(schedule, rng)


def test_engine_shaped_sequence_stays_valid_chunk_by_chunk():
    """The header engine's use: a long valid behavior, two events a round."""
    monitor = ValidityMonitor(T, R)
    monitor.feed([wake(T, R), wake(R, T)])
    for i in range(200):
        message = Message(i)
        monitor.feed([send_msg(T, R, message), receive_msg(T, R, message)])
        assert monitor.result() == PropertyResult.ok("valid")
    monitor.feed([receive_msg(T, R, Message(7))])
    assert monitor.result() == reference_validity(
        [wake(T, R), wake(R, T)]
        + [
            a
            for i in range(200)
            for a in (send_msg(T, R, Message(i)), receive_msg(T, R, Message(i)))
        ]
        + [receive_msg(T, R, Message(7))],
        T,
        R,
    )
    assert "DL4 fails" in monitor.result().witness


def test_verdict_is_final_after_a_fault():
    monitor = ValidityMonitor(T, R)
    monitor.feed([wake(T, R), wake(R, T), fail(T, R)])
    monitor.feed([send_msg(T, R, MESSAGES[0]), crash(R, T)])
    assert monitor.result() == PropertyResult.violated(
        "valid", "fail/crash event at 2: valid sequences contain none"
    )

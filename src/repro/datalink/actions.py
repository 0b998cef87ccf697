"""Data-link-layer action constructors and signature (paper, Section 4).

The data link layer for ``(t, r)`` shares its ``wake``/``fail``/``crash``
actions with the two underlying physical channels: ``crash^{t,r}`` is the
transmitting station's crash, ``crash^{r,t}`` the receiving station's.
"""

from __future__ import annotations

from functools import lru_cache

from ..alphabets import Message
from ..ioa.actions import Action, action_family, directed
from ..ioa.signature import ActionSignature
from ..channels.actions import CRASH, FAIL, WAKE, crash, fail, wake

SEND_MSG = "send_msg"
RECEIVE_MSG = "receive_msg"


# Recent actions are kept: the scripts of a fuzz campaign or load run
# resubmit equal messages, and each then hands the stations' slice
# tables the very object they stored (as ReceiveActions does).
@lru_cache(maxsize=256)
def send_msg(t: str, r: str, message: Message) -> Action:
    """``send_msg^{t,r}(m)``: the environment submits ``m`` at station t."""
    return directed(SEND_MSG, t, r, message)


def receive_msg(t: str, r: str, message: Message) -> Action:
    """``receive_msg^{t,r}(m)``: the link delivers ``m`` at station r."""
    return directed(RECEIVE_MSG, t, r, message)


def data_link_signature(t: str, r: str) -> ActionSignature:
    """``sig(DL^{t,r})``: the external signature of the data link layer."""
    return ActionSignature.make(
        inputs=[
            action_family(SEND_MSG, t, r),
            action_family(WAKE, t, r),
            action_family(FAIL, t, r),
            action_family(CRASH, t, r),
            action_family(WAKE, r, t),
            action_family(FAIL, r, t),
            action_family(CRASH, r, t),
        ],
        outputs=[action_family(RECEIVE_MSG, t, r)],
    )


__all__ = [
    "CRASH",
    "FAIL",
    "RECEIVE_MSG",
    "SEND_MSG",
    "WAKE",
    "crash",
    "data_link_signature",
    "fail",
    "receive_msg",
    "send_msg",
    "wake",
]

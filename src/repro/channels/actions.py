"""Physical-layer action constructors (paper, Section 3).

The physical layer for endpoint pair ``(t, r)`` has input actions
``send_pkt``, ``wake``, ``fail`` and ``crash`` (all superscripted
``t,r``) and output actions ``receive_pkt``.  The ``wake``/``fail``/
``crash`` actions are *shared* with the data link layer signature
(Section 4): they are the same actions, which is how the composed system
receives a single notification stream.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Tuple

from ..alphabets import Packet
from ..ioa.actions import Action, action_family, directed
from ..ioa.signature import ActionSignature, FamilyKey

SEND_PKT = "send_pkt"
RECEIVE_PKT = "receive_pkt"
WAKE = "wake"
FAIL = "fail"
CRASH = "crash"


def send_pkt(src: str, dst: str, packet: Packet) -> Action:
    """``send_pkt^{src,dst}(p)``: the sender hands ``p`` to the channel."""
    return directed(SEND_PKT, src, dst, packet)


def receive_pkt(src: str, dst: str, packet: Packet) -> Action:
    """``receive_pkt^{src,dst}(p)``: the channel delivers ``p``."""
    return directed(RECEIVE_PKT, src, dst, packet)


class ReceiveActions(dict):
    """``packet -> receive_pkt^{src,dst}(packet)``, one object per packet.

    A channel enumerates its delivery through one of these, so it
    builds each packet's action once rather than on every enumeration.
    A campaign's stations keep slice tables whose steps are keyed by
    action, and every run of the campaign steps the same channel
    automaton per direction
    (:func:`~repro.conformance.harness.resolve_pair`), so its table
    hands the stations the very object they stored and a probe matches
    by identity instead of comparing fields.  A full table starts over;
    the actions it hands out after that are equal to the stored ones,
    just not identical.
    """

    limit = 1 << 12

    def __init__(self, src: str, dst: str):
        super().__init__()
        self.src = src
        self.dst = dst

    def __missing__(self, packet: Packet) -> Action:
        if len(self) >= self.limit:
            self.clear()
        action = self[packet] = receive_pkt(self.src, self.dst, packet)
        return action


# One object per endpoint pair, so every script's wake, fail and crash
# match a station slice table's stored key by identity.
@lru_cache(maxsize=256)
def wake(src: str, dst: str) -> Action:
    """``wake^{src,dst}``: the medium (direction src->dst) became active."""
    return directed(WAKE, src, dst)


@lru_cache(maxsize=256)
def fail(src: str, dst: str) -> Action:
    """``fail^{src,dst}``: the medium (direction src->dst) became inactive."""
    return directed(FAIL, src, dst)


@lru_cache(maxsize=256)
def crash(src: str, dst: str) -> Action:
    """``crash^{src,dst}``: station ``src`` suffered a hardware crash."""
    return directed(CRASH, src, dst)


def physical_layer_signature(src: str, dst: str) -> ActionSignature:
    """``sig(PL^{src,dst})``: the physical-layer action signature."""
    return ActionSignature.make(
        inputs=[
            action_family(SEND_PKT, src, dst),
            action_family(WAKE, src, dst),
            action_family(FAIL, src, dst),
            action_family(CRASH, src, dst),
        ],
        outputs=[action_family(RECEIVE_PKT, src, dst)],
    )


def packet_families(src: str, dst: str) -> Tuple[FamilyKey, ...]:
    """The ``send_pkt``/``receive_pkt`` families hidden by ``hide_Phi``."""
    return (
        action_family(SEND_PKT, src, dst),
        action_family(RECEIVE_PKT, src, dst),
    )

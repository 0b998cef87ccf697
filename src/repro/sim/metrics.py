"""Metrics extracted from executions: deliveries, latency, header census.

These operate on full execution fragments of a composed data-link
system (so they can see the hidden ``send_pkt``/``receive_pkt`` events
as well as the external data-link actions).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from ..alphabets import Message, Packet
from ..ioa.execution import ExecutionFragment
from ..obs import current_tracer
from ..channels.actions import RECEIVE_PKT, SEND_PKT
from ..datalink.actions import RECEIVE_MSG, SEND_MSG
from ..datalink.message_independence import packet_class


@dataclass
class DeliveryStats:
    """Per-run delivery statistics; ``dropped`` counts the packets, in
    either direction, that left a channel's send side and never arrived."""

    sent: int
    delivered: int
    duplicates: int
    latencies: Tuple[int, ...]  # steps from send_msg to receive_msg
    dropped: int = 0

    @property
    def delivery_ratio(self) -> float:
        """Delivered / sent; degenerate cases pinned explicitly.

        With nothing sent, an empty trace is vacuously perfect (1.0),
        but a trace that *delivered* without any send -- e.g. a
        duplicate-only fragment sliced after its sends -- is an anomaly
        and reports 0.0, never a ratio above 1.
        """
        if self.sent:
            return self.delivered / self.sent
        return 0.0 if self.delivered else 1.0

    @property
    def mean_latency(self) -> float:
        return (
            sum(self.latencies) / len(self.latencies)
            if self.latencies
            else 0.0
        )


@dataclass
class ChannelStats:
    """Per-run packet-level statistics for one channel direction."""

    packets_sent: int
    packets_received: int
    distinct_headers: int
    header_census: Dict[object, int] = field(default_factory=dict)

    @property
    def loss_ratio(self) -> float:
        if not self.packets_sent:
            return 0.0
        return 1.0 - self.packets_received / self.packets_sent


def delivery_stats(
    fragment: ExecutionFragment, t: str = "t", r: str = "r"
) -> DeliveryStats:
    """Delivery counts, latencies and dropped packets from a full
    execution fragment, in one pass over its actions."""
    forward = (t, r)
    send_index: Dict[Message, int] = {}
    delivered: Dict[Message, int] = {}
    duplicates = 0
    latencies: List[int] = []
    # Packets sent minus packets received, per direction.
    in_flight = {forward: 0, (r, t): 0}
    for index, action in enumerate(fragment.actions):
        name = action.name
        if name == SEND_PKT or name == RECEIVE_PKT:
            if action.direction in in_flight:
                in_flight[action.direction] += 1 if name == SEND_PKT else -1
        elif action.direction != forward:
            continue
        elif name == SEND_MSG:
            send_index.setdefault(action.payload, index)
        elif name == RECEIVE_MSG:
            message = action.payload
            if message in delivered:
                duplicates += 1
                continue
            delivered[message] = index
            if message in send_index:
                latencies.append(index - send_index[message])
    if delivered and not send_index:
        # Deliveries with no send in view: flag it on the event stream
        # so traced runs surface the anomaly instead of a silent 0.0.
        current_tracer().count(
            "sim.anomaly.unsent_delivery", len(delivered)
        )
    return DeliveryStats(
        sent=len(send_index),
        delivered=len(delivered),
        duplicates=duplicates,
        latencies=tuple(latencies),
        dropped=sum(max(0, count) for count in in_flight.values()),
    )


def channel_stats(
    fragment: ExecutionFragment, src: str, dst: str
) -> ChannelStats:
    """Packet counts and header census for one channel direction."""
    send_key = (SEND_PKT, (src, dst))
    receive_key = (RECEIVE_PKT, (src, dst))
    sent = 0
    received = 0
    census: Dict[object, int] = {}
    # A packet's class depends only on its header and body length, and a
    # run resends few distinct ones, so compute each class once.
    classes: Dict[Tuple[object, int], object] = {}
    for action in fragment.actions:
        if action.key == send_key:
            sent += 1
            packet: Packet = action.payload
            shape = (packet.header, len(packet.body))
            cls = classes.get(shape)
            if cls is None:
                cls = classes[shape] = packet_class(packet)
            census[cls] = census.get(cls, 0) + 1
        elif action.key == receive_key:
            received += 1
    return ChannelStats(
        packets_sent=sent,
        packets_received=received,
        distinct_headers=len(census),
        header_census=census,
    )


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest sample value that at
    least ``q`` percent of the sample is less than or equal to.

    Exact on small samples (no interpolation), which is what lets the
    load generator's aggregate reports stay byte-identical across
    worker counts: ``percentile([10, 20, 30, 40], 50) == 20`` --
    ``ceil(0.50 * 4) = 2``, so the 2nd-smallest value -- and
    ``percentile(values, 100)`` is always ``max(values)``.  An empty
    sample reports 0.0 (a load run with no delivered messages has no
    latency distribution, not an error).
    """
    if not 0 < q <= 100:
        raise ValueError(f"percentile q must be in (0, 100], got {q}")
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(len(ordered) * q / 100.0))
    return ordered[rank - 1]


def percentile_summary(values: Sequence[float]) -> Dict[str, float]:
    """``{"p50": ..., "p95": ..., "p99": ...}`` via :func:`percentile`."""
    return {f"p{q}": percentile(values, q) for q in (50, 95, 99)}


def distinct_headers_used(
    fragment: ExecutionFragment, src: str = "t", dst: str = "r"
) -> int:
    """How many distinct packet classes the protocol used on a channel.

    This is the measurable form of the Section 9 discussion: Stenning's
    protocol uses a number of headers linear in the number of messages,
    while sliding-window protocols use O(1).
    """
    return channel_stats(fragment, src, dst).distinct_headers

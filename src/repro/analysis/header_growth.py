"""Header-growth measurement (paper, Section 9 discussion).

The paper's final discussion contrasts protocols by the number of
distinct headers used to transmit the first ``n`` messages: Stenning's
protocol uses a *linear* number (a new header per message), while
sliding-window protocols use a constant number -- and Section 8 proves
that over non-FIFO channels a bounded (indeed, the final-version remark
suggests any sublinear) number cannot suffice.

This module measures the distinct-header count as a function of ``n``
for any protocol over any channel pair, producing the series behind
experiment E4.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..alphabets import MessageFactory
from ..datalink.protocol import DataLinkProtocol
from ..ioa.fairness import fair_extension
from ..sim.metrics import channel_stats
from ..sim.network import fifo_system, permissive_system


@dataclass
class HeaderGrowthPoint:
    """Distinct header classes used after delivering ``n`` messages."""

    messages: int
    distinct_headers_tr: int
    distinct_headers_rt: int
    packets_sent: int

    @property
    def total_distinct(self) -> int:
        return self.distinct_headers_tr + self.distinct_headers_rt


@dataclass
class HeaderGrowthSeries:
    """The growth curve for one protocol."""

    protocol_name: str
    points: Tuple[HeaderGrowthPoint, ...]

    def slope_estimate(self) -> float:
        """Headers-per-message over the measured range.

        Approximately 1.0 (counting data headers alone) for Stenning's
        protocol and approximately 0 for bounded-header protocols.
        """
        if len(self.points) < 2:
            return 0.0
        first, last = self.points[0], self.points[-1]
        span = last.messages - first.messages
        if span <= 0:
            return 0.0
        return (last.total_distinct - first.total_distinct) / span

    def is_bounded(self, bound: Optional[int] = None) -> bool:
        """Heuristic boundedness: the census stopped growing."""
        if bound is not None:
            return all(p.total_distinct <= bound for p in self.points)
        if len(self.points) < 2:
            return True
        return (
            self.points[-1].total_distinct
            == self.points[-2].total_distinct
        )


def measure_header_growth(
    protocol: DataLinkProtocol,
    checkpoints: Sequence[int] = (1, 2, 4, 8, 16, 32),
    fifo: bool = True,
    max_steps: int = 500_000,
) -> HeaderGrowthSeries:
    """Deliver messages one at a time, sampling the header census.

    Uses clean permissive channels (FIFO or not) so every protocol in
    the repository terminates each delivery.
    """
    system = fifo_system(protocol) if fifo else permissive_system(protocol)
    factory = MessageFactory(label="g")
    fragment = system.run_inputs(
        system.initial_state(), [system.wake_t(), system.wake_r()]
    )
    points: List[HeaderGrowthPoint] = []
    delivered = 0
    for target in sorted(checkpoints):
        while delivered < target:
            message = factory.fresh()
            fragment = fair_extension(
                system.automaton,
                fragment,
                inputs=[system.send(message)],
                max_steps=max_steps,
            )
            delivered += 1
        stats_tr = channel_stats(fragment, system.t, system.r)
        stats_rt = channel_stats(fragment, system.r, system.t)
        points.append(
            HeaderGrowthPoint(
                messages=delivered,
                distinct_headers_tr=stats_tr.distinct_headers,
                distinct_headers_rt=stats_rt.distinct_headers,
                packets_sent=stats_tr.packets_sent + stats_rt.packets_sent,
            )
        )
    return HeaderGrowthSeries(protocol.name, tuple(points))

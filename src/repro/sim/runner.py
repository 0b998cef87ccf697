"""What a simulated scenario returns.

The scenario-driving loop -- script inputs interleaved with a random
(seeded) number of fair steps, then a drain to quiescence -- lives in
:class:`repro.sim.session.Session`; ``Session(...).run()`` is the one
execution entry point and returns the :class:`ScenarioResult` defined
here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from ..ioa.actions import Action
from ..ioa.execution import ExecutionFragment
from ..obs import STATUS_OK, RunReport


@dataclass
class ScenarioResult:
    """Outcome of one simulated scenario."""

    fragment: ExecutionFragment
    behavior: Tuple[Action, ...]
    quiescent: bool

    @property
    def steps(self) -> int:
        return len(self.fragment)

    def distinct_states(self) -> list:
        """The run's distinct visited states, first-occurrence order.

        One dict pass over the plain states: the slice values keep
        their structural hashes (:mod:`repro.hashing`), so each state
        costs one shallow tuple hash.
        """
        return list(dict.fromkeys(self.fragment.states))

    def report(
        self,
        duration_s: float = 0.0,
        *,
        stations: Tuple[str, str] = ("t", "r"),
    ) -> RunReport:
        """This scenario as the unified :class:`~repro.obs.RunReport`.

        ``stations`` names the (transmitter, receiver) pair the
        delivery and channel statistics are computed over.

        The status is ``ok`` -- a scenario that ran to completion is a
        successful run whatever the protocol did; correctness verdicts
        come from the trace auditors, which the CLI folds in on top.
        """
        from .metrics import channel_stats, delivery_stats

        t, r = stations
        stats = delivery_stats(self.fragment, t, r)
        counters = {
            "sim.steps": self.steps,
            "sim.messages_sent": stats.sent,
            "sim.messages_delivered": stats.delivered,
            "sim.duplicate_deliveries": stats.duplicates,
            "sim.packets_dropped": _dropped(
                channel_stats(self.fragment, t, r)
            )
            + _dropped(channel_stats(self.fragment, r, t)),
        }
        return RunReport(
            command="simulate",
            status=STATUS_OK,
            counters=counters,
            duration_s=duration_s,
            details={
                "steps": self.steps,
                "quiescent": self.quiescent,
                "sent": stats.sent,
                "delivered": stats.delivered,
                "duplicates": stats.duplicates,
                "delivery_ratio": stats.delivery_ratio,
            },
        )


def _dropped(stats) -> int:
    """Packets that left a channel's send side and never arrived."""
    return max(0, stats.packets_sent - stats.packets_received)

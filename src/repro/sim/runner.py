"""What a simulated scenario returns.

The scenario-driving loop -- script inputs interleaved with a random
(seeded) number of fair steps, then a drain to quiescence -- lives in
:class:`repro.sim.session.Session`; ``Session(...).run()`` is the one
execution entry point and returns the :class:`ScenarioResult` defined
here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from ..ioa.actions import Action
from ..ioa.execution import ExecutionFragment
from ..ioa.signature import ActionSignature
from ..obs import STATUS_OK, RunReport


@dataclass
class ScenarioResult:
    """Outcome of one simulated scenario.

    A run that a ``stop_when`` predicate cut short is not quiescent.
    ``resumed`` counts the fragment's steps that were taken from a
    checkpoint rather than executed.  Built with ``signature`` and no
    behavior, the result works out :attr:`behavior` on first read.
    """

    fragment: ExecutionFragment
    _behavior: Optional[Tuple[Action, ...]] = field(compare=False)
    quiescent: bool
    resumed: int = 0
    signature: Optional[ActionSignature] = field(
        default=None, repr=False, compare=False
    )

    @property
    def behavior(self) -> Tuple[Action, ...]:
        """The fragment's external actions under ``signature``."""
        if self._behavior is None:
            self._behavior = self.fragment.behavior(self.signature)
        return self._behavior

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
        from .metrics import delivery_stats

        stats = delivery_stats(self.fragment, *stations)
        counters = {
            "sim.steps": self.steps,
            "sim.messages_sent": stats.sent,
            "sim.messages_delivered": stats.delivered,
            "sim.duplicate_deliveries": stats.duplicates,
            "sim.packets_dropped": stats.dropped,
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


"""k-boundedness (paper, Section 8.1), as an executable probe.

A protocol is *k-bounded* when, after any finite schedule with valid
behavior, any fresh message can be transmitted using at most ``k``
``receive_pkt^{t,r}`` events, without re-receiving packets sent earlier.
"Most practical protocols are in fact 1-bounded."

The universal quantifier over schedules is not decidable, so this module
provides a *probe*: it drives the protocol over the permissive non-FIFO
channels through a sequence of single-message deliveries, cleaning the
channels before each (so no earlier packet can be re-received, matching
the definition's condition 2), and records how many data packets the
receiver consumed per delivery.  The bounded-header engine performs the
same probe inside its pumping loop and uses the per-round observation
directly, so its constructions never depend on the probe generalizing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from ..alphabets import MessageFactory
from ..channels.actions import RECEIVE_PKT
from ..ioa.execution import ExecutionFragment
from ..ioa.fairness import FairnessTimeout
from .protocol import DataLinkProtocol


@dataclass
class KBoundReport:
    """Result of a k-boundedness probe.

    ``k`` is the maximum number of ``receive_pkt^{t,r}`` events observed
    in any single-message delivery; ``per_round`` records each round.
    ``delivered`` is False when some round failed to deliver within the
    step budget (the protocol then is not weakly correct to begin with).
    """

    k: int
    per_round: Tuple[int, ...]
    delivered: bool = True
    detail: str = ""


def probe_k_bound(
    protocol: DataLinkProtocol,
    rounds: int = 8,
    max_steps: int = 50_000,
) -> KBoundReport:
    """Measure the per-delivery data-packet count over clean channels."""
    from ..sim.network import permissive_system  # avoid import cycle

    system = permissive_system(protocol)
    factory = MessageFactory()
    state = system.run_inputs(
        system.initial_state(), [system.wake_t(), system.wake_r()]
    ).final_state

    observations: List[int] = []
    for _ in range(rounds):
        state = system.clean_channels(state)
        message = factory.fresh()
        try:
            fragment, delivered = system.deliver(
                ExecutionFragment.initial(state),
                message,
                [system.send(message)],
                max_steps,
            )
        except FairnessTimeout:
            return KBoundReport(
                max(observations, default=0),
                tuple(observations),
                delivered=False,
                detail=f"message {message} not delivered in {max_steps} steps",
            )
        if not delivered:
            return KBoundReport(
                max(observations, default=0),
                tuple(observations),
                delivered=False,
                detail=f"system quiesced without delivering {message}",
            )
        observations.append(
            sum(
                1
                for a in fragment.actions
                if a.key == (RECEIVE_PKT, (system.t, system.r))
            )
        )
        state = fragment.final_state
        # Drain the system so the next round starts from a quiescent,
        # valid-behavior point.
        fragment = system.run_fair(state, max_steps=max_steps)
        state = fragment.final_state
    return KBoundReport(max(observations), tuple(observations))

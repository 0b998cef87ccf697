"""The crashing property (paper, Section 5.3.2), executably.

A transmitting (receiving) automaton is *crashing* when it has a unique
start state ``q0`` and ``(q, crash, q0)`` is a step for every state
``q``: a host crash loses all protocol memory.  A protocol with access
to non-volatile storage (e.g. Baratz-Segall's one bit) is not crashing.

Because the state space is infinite, the checker validates the property
on a corpus of reachable states sampled from live executions, plus the
protocol's declared ``crash_resilient`` flag.  The crash engine
additionally relies on the property at each crash it injects and will
fail loudly if a crash step does not reset the core.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Set

from ..alphabets import MessageFactory
from .protocol import DataLinkProtocol, HostState


@dataclass
class CrashingReport:
    """Result of the empirical crashing check."""

    crashing: bool
    states_checked: int
    detail: str = ""


def check_crashing(
    protocol: DataLinkProtocol,
    message_count: int = 6,
    max_steps: int = 20_000,
) -> CrashingReport:
    """Check that crash steps reset both stations to their start states.

    Samples the host states arising along a live execution over clean
    FIFO channels (including mid-protocol states with messages queued and
    packets outstanding) and applies a crash step to each.
    """
    from ..sim.network import fifo_system  # local import to avoid a cycle

    system = fifo_system(protocol)
    factory = MessageFactory()
    inputs = [system.wake_t(), system.wake_r()] + [
        system.send(m) for m in factory.fresh_many(message_count)
    ]
    run = system.run_fair(
        system.initial_state(), inputs=inputs, max_steps=max_steps
    )

    checked = 0
    for station, automaton, crash_action in (
        ("t", system.transmitter, system.crash_t()),
        ("r", system.receiver, system.crash_r()),
    ):
        initial_core = automaton.logic.initial_core()
        seen: Set[HostState] = set()
        for state in run.states:
            host = system.host_state(state, station)
            if host in seen:
                continue
            seen.add(host)
            crashed = automaton.step(host, crash_action)
            checked += 1
            if crashed.core != initial_core:
                return CrashingReport(
                    False,
                    checked,
                    f"crash at {station} from {host.core!r} leaves "
                    f"{crashed.core!r}, not the start state",
                )
    return CrashingReport(True, checked)

"""Randomized correctness harness for data link protocols (Section 5.2).

The paper's correctness notion quantifies over *all* physical channels;
that is not decidable, but the permissive channels are universal
(Lemma 6.2: every sensible failure-free physical-layer schedule is a
behavior of ``C-bar``), so checking a protocol against many seeded
delivery sets covers the space of channel behaviors up to the horizon.

The harness composes a protocol with its channels once per batch, starts
that system from a seeded pair of channel states per seed, runs a fault
script and checks every resulting fair behavior against ``DL`` or
``WDL``.  A single failing behavior refutes correctness; passing runs
are evidence (not proof) of it -- the repository's positive controls.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Sequence, Tuple

from ..ioa.actions import Action
from ..ioa.automaton import State
from ..ioa.schedule_module import ModuleVerdict
from ..channels.delivery_set import (
    DeliverySet,
    random_lossy_fifo,
    random_reordering,
)
from ..channels.permissive import PermissiveChannelState
from ..sim.faults import FaultPlan, generate_script
from ..sim.network import DataLinkSystem, fifo_system, permissive_system
from ..sim.session import Session
from .modules import dl_module, wdl_module
from .protocol import DataLinkProtocol


@dataclass
class CorrectnessFailure:
    """One failing run: the seed, the behavior and the verdict."""

    seed: int
    behavior: Tuple[Action, ...]
    verdict: ModuleVerdict
    quiescent: bool


@dataclass
class CorrectnessReport:
    """Outcome of a correctness batch."""

    protocol_name: str
    module_name: str
    runs: int
    failures: List[CorrectnessFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def check_protocol(
    system: DataLinkSystem,
    starts: Callable[[int], Tuple[State, State]],
    seeds: Sequence[int] = tuple(range(10)),
    messages: int = 10,
    weak: bool = False,
    max_steps: int = 200_000,
) -> CorrectnessReport:
    """Run a composed system from seeded channel starts and check each
    behavior.

    ``starts(seed)`` is the ``(t->r, r->t)`` pair of channel start
    states one run begins in (:meth:`DataLinkSystem.started`).
    ``weak`` selects the ``WDL`` module instead of ``DL``.  Liveness
    (DL8) is only asserted on quiescent runs; a non-quiescent run is
    checked for safety and recorded as failing if it additionally ran
    out of budget without quiescing.
    """
    module_factory = wdl_module if weak else dl_module
    report = CorrectnessReport(
        system.protocol.name,
        module_factory("t", "r").name,
        runs=len(seeds),
    )
    for seed in seeds:
        run = system.started(*starts(seed))
        script = generate_script(run, FaultPlan(messages=messages, seed=seed))
        result = Session(
            run, tuple(script.actions), seed=seed, max_steps=max_steps
        ).run()
        module = module_factory("t", "r", quiescent=result.quiescent)
        verdict = module.check(result.behavior)
        if not verdict.in_module or not result.quiescent:
            report.failures.append(
                CorrectnessFailure(
                    seed, result.behavior, verdict, result.quiescent
                )
            )
    return report


def _seeded_starts(
    delivery: Callable[[int], DeliverySet]
) -> Callable[[int], Tuple[State, State]]:
    """Per-seed channel starts: ``delivery(seed)`` on t->r and
    ``delivery(seed + 7919)`` on r->t."""
    return lambda seed: (
        PermissiveChannelState(delivery=delivery(seed)),
        PermissiveChannelState(delivery=delivery(seed + 7919)),
    )


def check_over_lossy_fifo(
    protocol: DataLinkProtocol,
    loss_rate: float = 0.3,
    seeds: Sequence[int] = tuple(range(10)),
    messages: int = 10,
    weak: bool = False,
    max_steps: int = 200_000,
) -> CorrectnessReport:
    """Correctness over seeded lossy FIFO channels."""
    return check_protocol(
        fifo_system(protocol),
        _seeded_starts(lambda seed: random_lossy_fifo(seed, loss_rate)),
        seeds=seeds,
        messages=messages,
        weak=weak,
        max_steps=max_steps,
    )


def check_over_reordering(
    protocol: DataLinkProtocol,
    loss_rate: float = 0.2,
    window: int = 4,
    seeds: Sequence[int] = tuple(range(10)),
    messages: int = 10,
    weak: bool = True,
    max_steps: int = 200_000,
) -> CorrectnessReport:
    """Weak correctness over seeded non-FIFO (reordering) channels.

    Protocols that desynchronize over reordering may *livelock* (e.g.
    endless retransmission against a NAK-ing receiver); such runs burn
    the whole ``max_steps`` budget and are reported as non-quiescent
    failures, so pass a smaller budget when probing suspected-broken
    protocols.
    """
    return check_protocol(
        permissive_system(protocol),
        _seeded_starts(lambda seed: random_reordering(seed, loss_rate, window)),
        seeds=seeds,
        messages=messages,
        weak=weak,
        max_steps=max_steps,
    )

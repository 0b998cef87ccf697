"""Deterministic run construction shared by fuzzer, shrinker and replay.

One campaign seed must pin down *everything*: the channel adversaries
(delivery sets), the generated input script, and the fair interleaving.
The harness derives four independent 32-bit sub-seeds per run from a
single master :class:`random.Random` and rebuilds identical start
states from them, so the shrinker can re-run *modified* scripts against
the exact channel/interleaving adversary that produced the original
violation, and a replay file can reproduce a violation from the
sub-seeds alone.  The composed system itself is built once per
(protocol, channel) pair (:func:`resolve_pair`): runs differ only in
their start state.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

from ..alphabets import MessageFactory
from ..channels.properties import feed_all
from ..datalink.properties import MONITORS
from ..ioa.actions import Action
from ..ioa.automaton import with_memo
from ..sim.faults import FaultPlan, GeneratedScript, generate_script
from ..sim.network import DataLinkSystem
from ..sim.runner import ScenarioResult
from ..sim.session import Checkpoints, Session
from .arbitrary import corrupt_initial_state
from .registry import resolve_fuzz_channel, resolve_fuzz_protocol


@dataclass(frozen=True)
class FuzzConfig:
    """Knobs for one fuzz campaign.

    The channel knobs (``loss_rate``, ``reorder_window``, ``horizon``)
    parameterize the seeded delivery sets; the script knobs mirror
    :class:`~repro.sim.faults.FaultPlan`.  ``horizon`` bounds the
    adversarial portion of each delivery set -- beyond it the channel is
    FIFO and lossless, which is what guarantees that retransmitting
    protocols eventually quiesce.
    """

    runs: int = 20
    messages: int = 6
    loss_rate: float = 0.2
    reorder_window: int = 4
    horizon: int = 1024
    max_interleave: int = 8
    max_steps: int = 60_000
    fail_probability: float = 0.05
    receiver_fail_probability: float = 0.05
    crash_probability: float = 0.0
    link_flap_probability: float = 0.0
    link_partition_probability: float = 0.0
    shrink: bool = True
    shrink_budget: int = 400
    deep_oracles: bool = False
    init_mode: str = "clean"
    capacity: int = 4


#: Named fault mixes, applied on top of the defaults via ``with_mix``.
FAULT_MIXES = {
    "default": {},
    "clean": {
        "loss_rate": 0.0,
        "fail_probability": 0.0,
        "receiver_fail_probability": 0.0,
    },
    "drop-flood": {"loss_rate": 0.5},
    "reorder-flood": {"reorder_window": 16, "loss_rate": 0.1},
    "crash-storm": {
        "crash_probability": 0.35,
        "fail_probability": 0.1,
        "receiver_fail_probability": 0.1,
    },
    # Dynamic-link mixes (Berard et al., arXiv:2002.07545): links go
    # down and come back up mid-run, one direction at a time
    # (link-flap) or both at once (link-partition).
    "link-flap": {
        "link_flap_probability": 0.3,
        "fail_probability": 0.0,
        "receiver_fail_probability": 0.0,
    },
    "link-partition": {
        "link_partition_probability": 0.25,
        "fail_probability": 0.0,
        "receiver_fail_probability": 0.0,
    },
}


def with_mix(config: FuzzConfig, mix: str) -> FuzzConfig:
    """``config`` with the named fault mix's overrides applied."""
    if mix not in FAULT_MIXES:
        raise KeyError(
            f"unknown fault mix {mix!r}; available: "
            + ", ".join(sorted(FAULT_MIXES))
        )
    return replace(config, **FAULT_MIXES[mix])


@dataclass(frozen=True)
class SubSeeds:
    """The four independent randomness sources of one fuzz run."""

    channel_tr: int
    channel_rt: int
    script: int
    interleave: int

    @staticmethod
    def derive(master: random.Random) -> "SubSeeds":
        """Draw the next run's sub-seeds from the campaign master RNG."""
        return SubSeeds(
            channel_tr=master.getrandbits(32),
            channel_rt=master.getrandbits(32),
            script=master.getrandbits(32),
            interleave=master.getrandbits(32),
        )

    def to_dict(self) -> dict:
        return {
            "channel_tr": self.channel_tr,
            "channel_rt": self.channel_rt,
            "script": self.script,
            "interleave": self.interleave,
        }

    @staticmethod
    def from_dict(data: dict) -> "SubSeeds":
        return SubSeeds(
            channel_tr=int(data["channel_tr"]),
            channel_rt=int(data["channel_rt"]),
            script=int(data["script"]),
            interleave=int(data["interleave"]),
        )


def resolve_pair(protocol_name: str, channel_name: str):
    """``(system, start)`` from the fuzz registries.

    ``system`` composes the protocol's transmitter and receiver, each
    with a :class:`~repro.ioa.engine.interning.SliceTable`, with the
    channel family's two seed-free channel automata; ``start`` is the
    family's seeded start-state builder.  Every run :func:`build_system`
    makes from one result shares the composition, its fair kernel's
    view and the stations' tables, so what one run computed answers
    every later run, for as long as the result lives: the pool resolves
    once per serial schedule or worker.  Runs of one result must not
    interleave: the kernel's view describes one run at a time.
    """
    protocol = resolve_fuzz_protocol(protocol_name)
    family = resolve_fuzz_channel(channel_name)
    system = DataLinkSystem.build(
        protocol,
        family.automaton("t", "r"),
        family.automaton("r", "t"),
        stations=tuple(with_memo(station) for station in protocol.build()),
    )
    return system, family.start


def build_system(
    protocol_name: str,
    channel_name: str,
    subseeds: SubSeeds,
    config: FuzzConfig,
    resolved=None,
) -> DataLinkSystem:
    """The resolved system, started where this run starts.

    The channels start in states built from their sub-seeds and the
    config's channel knobs; under ``init_mode="arbitrary"`` the whole
    start is then corrupted (:func:`corrupt_initial_state`).  The
    start is a pure function of ``(subseeds, config)``, which is what
    lets the shrinker and the replayer re-run scripts against the
    original adversary.  Pass ``resolved`` (a :func:`resolve_pair`
    result) to skip the registry lookups and share its system; the
    result is that system with its ``start`` replaced.
    """
    system, start = resolved or resolve_pair(protocol_name, channel_name)
    knobs = (config.loss_rate, config.reorder_window, config.horizon, config.capacity)
    system = system.started(
        start(subseeds.channel_tr, *knobs), start(subseeds.channel_rt, *knobs)
    )
    if config.init_mode == "arbitrary":
        system = replace(system, start=corrupt_initial_state(system, subseeds))
    return system


def build_script(
    system: DataLinkSystem, subseeds: SubSeeds, config: FuzzConfig
) -> GeneratedScript:
    """Generate this run's input script from its script sub-seed."""
    plan = FaultPlan(
        messages=config.messages,
        fail_probability=config.fail_probability,
        receiver_fail_probability=config.receiver_fail_probability,
        crash_probability=config.crash_probability,
        link_flap_probability=config.link_flap_probability,
        link_partition_probability=config.link_partition_probability,
        seed=subseeds.script,
    )
    return generate_script(
        system,
        plan,
        factory=MessageFactory(label="s"),
        rng=random.Random(subseeds.script),
    )


def execute_script(
    system: DataLinkSystem,
    actions: Sequence[Action],
    subseeds: SubSeeds,
    config: FuzzConfig,
    stop_when: Optional[Callable[[Action], bool]] = None,
    checkpoints: Optional[Checkpoints] = None,
) -> ScenarioResult:
    """Run a script from the system's start under the run's
    interleaving sub-seed.

    The interleave RNG is rebuilt fresh on every ``run()``, so
    executing the same (system, actions, subseeds) triple is
    bit-identical -- the contract the shrinker's re-validation and
    ``--replay`` rely on.  The start, corrupted or not, is the one
    :func:`build_system` put on ``system``.

    ``stop_when`` and ``checkpoints`` go to :meth:`Session.run
    <repro.sim.session.Session.run>`: the run ends right after the
    first action ``stop_when`` holds for, and resumes from the deepest
    checkpoint of an earlier script of the same (system, subseeds,
    config) that shares its input prefix.  The result is the plain
    run's, cut at the stop.
    """
    return Session(
        system=system,
        script=tuple(actions),
        seed=subseeds.interleave,
        max_interleave=config.max_interleave,
        max_steps=config.max_steps,
    ).run(stop_when, checkpoints)


def script_admissible(
    actions: Sequence[Action], t: str = "t", r: str = "r"
) -> bool:
    """Is this a well-formed environment script?

    The shrinker may only propose scripts that keep the environment's
    side of the bargain -- strict wake/fail alternation per direction
    (well-formedness), both directions left awake (DL1, so liveness
    blame cannot fall on a never-woken receiver), sends inside
    transmitter working intervals (DL2), and fresh messages (DL3).
    Violations found under an inadmissible script would be the
    environment's fault, not the protocol's.
    """
    monitors = [MONITORS[n](t, r) for n in ("DL-well-formed", "DL1", "DL2", "DL3")]
    feed_all(monitors, actions)
    return all(monitor.violation() is None for monitor in monitors)

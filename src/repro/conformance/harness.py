"""Deterministic run construction shared by fuzzer, shrinker and replay.

One campaign seed must pin down *everything*: the channel adversaries
(delivery sets), the generated input script, and the fair interleaving.
The harness derives four independent 32-bit sub-seeds per run from a
single master :class:`random.Random` and rebuilds identical systems from
them, so the shrinker can re-run *modified* scripts against the exact
channel/interleaving adversary that produced the original violation,
and a replay file can reproduce a violation from the sub-seeds alone.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Callable, Dict, Optional, Sequence, Tuple

from ..alphabets import MessageFactory
from ..channels.actions import ReceiveActions
from ..channels.properties import feed_all
from ..datalink.properties import MONITORS
from ..ioa.actions import Action
from ..ioa.automaton import with_memo
from ..sim.faults import FaultPlan, GeneratedScript, generate_script
from ..sim.network import DataLinkSystem
from ..sim.runner import ScenarioResult
from ..sim.session import Checkpoints, Session
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
    """``(protocol, stations, channel builder)`` from the fuzz registries.

    ``stations`` is the protocol's transmitter and receiver, each with a
    :class:`~repro.ioa.engine.interning.SliceTable`.  Every system
    :func:`build_system` composes from one result shares them, so what
    one run computed answers every later run, for as long as the
    result lives: the pool resolves once per serial schedule or worker.
    The channels the builder makes share one
    :class:`~repro.channels.actions.ReceiveActions` per direction, which
    lives as long as the stations' tables, so a delivery probes them
    with the action object they stored.
    """
    protocol = resolve_fuzz_protocol(protocol_name)
    stations = tuple(with_memo(station) for station in protocol.build())
    build_channel = resolve_fuzz_channel(channel_name)
    receives: Dict[Tuple[str, str], ReceiveActions] = {}

    def build(src, dst, *args, **kwargs):
        channel = build_channel(src, dst, *args, **kwargs)
        if isinstance(getattr(channel, "receives", None), ReceiveActions):
            channel.receives = receives.setdefault((src, dst), channel.receives)
        return channel

    return protocol, stations, build


def build_system(
    protocol_name: str,
    channel_name: str,
    subseeds: SubSeeds,
    config: FuzzConfig,
    resolved=None,
) -> DataLinkSystem:
    """Compose the protocol with two sub-seeded channels.

    Rebuilding with the same arguments yields a system with an identical
    initial state (the automata are stateless; all run state lives in
    immutable state tuples), which is what lets the shrinker and the
    replayer re-run scripts against the original adversary.  Pass
    ``resolved`` (a :func:`resolve_pair` result) to skip the registry
    lookups and compose its shared stations; the channels are still
    built fresh from the sub-seeds and never memoised, so the rebuild
    contract is unchanged.
    """
    protocol, stations, build_channel = resolved or resolve_pair(
        protocol_name, channel_name
    )
    channel_tr = build_channel(
        "t",
        "r",
        subseeds.channel_tr,
        config.loss_rate,
        config.reorder_window,
        config.horizon,
        capacity=config.capacity,
    )
    channel_rt = build_channel(
        "r",
        "t",
        subseeds.channel_rt,
        config.loss_rate,
        config.reorder_window,
        config.horizon,
        capacity=config.capacity,
    )
    return DataLinkSystem.build(
        protocol, channel_tr, channel_rt, stations=stations
    )


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
    """Run a script under the run's interleaving sub-seed.

    The interleave RNG is rebuilt fresh on every ``run()``, so
    executing the same (system, actions, subseeds) triple is
    bit-identical -- the contract the shrinker's re-validation and
    ``--replay`` rely on.  Under ``init_mode="arbitrary"`` the run
    starts from a sub-seed-determined corrupted state instead of the
    composition's initial state; because the corruption is a pure
    function of (system, subseeds, config), the shrinker and the
    replayer reconstruct the identical corrupted start for free.

    ``stop_when`` and ``checkpoints`` go to :meth:`Session.run
    <repro.sim.session.Session.run>`: the run ends right after the
    first action ``stop_when`` holds for, and resumes from the deepest
    checkpoint of an earlier script of the same (system, subseeds,
    config) that shares its input prefix.  The result is the plain
    run's, cut at the stop.
    """
    initial_state = None
    if config.init_mode == "arbitrary":
        from .arbitrary import corrupt_initial_state

        initial_state = corrupt_initial_state(system, subseeds, config)
    return Session(
        system=system,
        script=tuple(actions),
        seed=subseeds.interleave,
        max_interleave=config.max_interleave,
        max_steps=config.max_steps,
        initial_state=initial_state,
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

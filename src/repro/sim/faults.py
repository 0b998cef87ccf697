"""Fault-injection input scripts for data-link systems.

Generates well-formed environment scripts (sequences of input actions)
for a :class:`~repro.sim.network.DataLinkSystem`: message submissions
interleaved with ``fail``/``wake`` cycles and host crashes.  Scripts are
deterministic in their seed and always satisfy the environment
obligations of the ``DL`` specification:

* well-formedness -- per direction, ``wake``/``fail`` alternate strictly
  starting with ``wake``, with crashes resetting the alternation;
* (DL2) -- ``send_msg`` only while the transmitter direction is awake;
* (DL3) -- all messages are fresh.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..alphabets import Message, MessageFactory
from ..ioa.actions import Action
from .network import DataLinkSystem


@dataclass
class FaultPlan:
    """Knobs for script generation.

    Probabilities are per-event; at each script position the generator
    chooses among send / fail-wake cycle / crash according to these
    weights (sends dominate by default).
    """

    messages: int = 10
    fail_probability: float = 0.0
    receiver_fail_probability: float = 0.0
    crash_probability: float = 0.0
    crash_transmitter: bool = True
    crash_receiver: bool = True
    link_flap_probability: float = 0.0
    link_partition_probability: float = 0.0
    seed: int = 0


@dataclass
class GeneratedScript:
    """An input script plus bookkeeping for later property checks."""

    actions: Tuple[Action, ...]
    messages: Tuple[Message, ...]
    crash_count: int = 0
    fail_cycles: int = 0
    link_flaps: int = 0
    link_partitions: int = 0

    @property
    def has_faults(self) -> bool:
        return (
            self.crash_count > 0
            or self.fail_cycles > 0
            or self.link_flaps > 0
            or self.link_partitions > 0
        )


def generate_script(
    system: DataLinkSystem,
    plan: FaultPlan,
    factory: Optional[MessageFactory] = None,
    rng: Optional[random.Random] = None,
) -> GeneratedScript:
    """Generate a well-formed input script according to ``plan``.

    All randomness comes from ``rng`` (defaulting to a fresh
    ``random.Random(plan.seed)``); the module never touches the global
    RNG, so callers that thread one instance through script generation,
    interleaving and channel construction get bit-identical runs.
    """
    rng = rng if rng is not None else random.Random(plan.seed)
    factory = factory or MessageFactory(label="s")
    actions: List[Action] = [system.wake_t(), system.wake_r()]
    messages: List[Message] = []
    crash_count = 0
    fail_cycles = 0
    link_flaps = 0
    link_partitions = 0
    sent = 0
    while sent < plan.messages:
        roll = rng.random()
        if roll < plan.crash_probability:
            targets = []
            if plan.crash_transmitter:
                targets.append("t")
            if plan.crash_receiver:
                targets.append("r")
            if targets:
                station = rng.choice(targets)
                crash_count += 1
                if station == "t":
                    # A crash delimits the alternation; wake again so that
                    # later sends fall in a working interval.
                    actions.extend([system.crash_t(), system.wake_t()])
                else:
                    actions.extend([system.crash_r(), system.wake_r()])
                continue
        if roll < plan.crash_probability + plan.fail_probability:
            # A bounded outage on the transmitter direction.
            fail_cycles += 1
            actions.extend([system.fail_t(), system.wake_t()])
            continue
        if roll < (
            plan.crash_probability
            + plan.fail_probability
            + plan.receiver_fail_probability
        ):
            # A bounded outage on the receiver direction.
            fail_cycles += 1
            actions.extend([system.fail_r(), system.wake_r()])
            continue
        # The dynamic-link windows sit after the legacy ones, so a plan
        # with zero link probabilities generates byte-identical scripts
        # to the pre-dynamic-link generator under the same seed.
        ladder = (
            plan.crash_probability
            + plan.fail_probability
            + plan.receiver_fail_probability
        )
        if roll < ladder + plan.link_flap_probability:
            # Link flap: one direction goes down and comes back up.
            link_flaps += 1
            if rng.choice(("t", "r")) == "t":
                actions.extend([system.fail_t(), system.wake_t()])
            else:
                actions.extend([system.fail_r(), system.wake_r()])
            continue
        if roll < (
            ladder
            + plan.link_flap_probability
            + plan.link_partition_probability
        ):
            # Link partition: both directions down simultaneously, then
            # both restored (the dynamic-link "network split" event).
            link_partitions += 1
            actions.extend(
                [
                    system.fail_t(),
                    system.fail_r(),
                    system.wake_t(),
                    system.wake_r(),
                ]
            )
            continue
        message = factory.fresh()
        messages.append(message)
        actions.append(system.send(message))
        sent += 1
    return GeneratedScript(
        tuple(actions),
        tuple(messages),
        crash_count,
        fail_cycles,
        link_flaps,
        link_partitions,
    )


def crash_storm(
    system: DataLinkSystem,
    crashes: int,
    messages_between: int = 2,
    seed: int = 0,
) -> GeneratedScript:
    """A script alternating bursts of sends with host crashes.

    Used by the non-volatile-memory experiments (E5): after each crash
    both stations are woken and a fresh burst of messages is submitted.
    """
    rng = random.Random(seed)
    factory = MessageFactory(label="s")
    actions: List[Action] = [system.wake_t(), system.wake_r()]
    messages: List[Message] = []

    def burst() -> None:
        for _ in range(messages_between):
            message = factory.fresh()
            messages.append(message)
            actions.append(system.send(message))

    burst()
    for _ in range(crashes):
        if rng.random() < 0.5:
            actions.extend([system.crash_t(), system.wake_t()])
        else:
            actions.extend([system.crash_r(), system.wake_r()])
        burst()
    return GeneratedScript(
        tuple(actions), tuple(messages), crash_count=crashes
    )

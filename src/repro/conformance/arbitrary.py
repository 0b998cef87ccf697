"""Arbitrary-initial-state corruption and the stabilization metric.

Self-stabilization (Dolev et al., arXiv:1011.3632) asks what a protocol
does when it *starts* in an arbitrary state: transient faults are
modeled not as events but as a corrupted initial configuration, and the
protocol stabilizes if every execution eventually reaches a suffix
satisfying the specification.

This module supplies the two halves of that workload:

* **Corruption** -- :func:`corrupt_initial_state` builds a composed
  start state by picking, for each of the four components (transmitter,
  receiver, channel t->r, channel r->t), one state from a pool of
  *locally reachable* states discovered by a short deterministic probe
  walk (recorded through the engine's :class:`InternTable` machinery).
  The product of locally-reachable states is generally *not* jointly
  reachable -- stations disagree about sequence numbers, channels hold
  ghost packets -- which is exactly the self-stabilization adversary.
  The choice is a pure function of ``(system, subseeds)``:
  :func:`~repro.conformance.harness.build_system` computes it once per
  run as the system's ``start``, the replayer rebuilds the identical
  one, and campaigns stay byte-identical at any worker count.

* **Measurement** -- :func:`stabilization_report` scans a finite
  data-link behavior backwards for the longest *violation-free suffix*:
  a suffix in which every ``receive_msg`` delivers a message that was
  actually submitted, at most once, in submission order.
  ``stabilization_time`` is the number of events before that suffix
  (0 means the run was clean from the start); ``converged`` means a
  non-empty clean suffix exists (equivalently, the behavior does not
  *end* mid-violation).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence, Tuple

from ..alphabets import MessageFactory
from ..datalink.actions import RECEIVE_MSG, SEND_MSG
from ..ioa.actions import Action
from ..ioa.engine.interning import InternTable
from ..ioa.execution import ExecutionFragment
from ..ioa.fairness import FairnessTimeout, run_to_quiescence
from ..sim.network import DataLinkSystem

#: Ghost messages submitted by the probe walk (label "g", disjoint from
#: the fuzz scripts' label "s"), and the fair-step budget after each
#: probe input.  Small on purpose: the pools need *variety*, not depth.
PROBE_MESSAGES = 3
PROBE_BURST = 24


def corruption_rng(subseeds) -> random.Random:
    """The corruption randomness of one run, derived from its sub-seeds.

    Seeding :class:`random.Random` with a *string* hashes it with
    SHA-512, independent of ``PYTHONHASHSEED``, so the same sub-seeds
    yield the same corruption in any process -- the property the
    ``--workers N`` byte-identity contract needs.  Deriving from all
    four sub-seeds (rather than adding a fifth draw to ``SubSeeds``)
    leaves every existing clean-mode schedule untouched.
    """
    key = (
        f"stab:{subseeds.channel_tr}:{subseeds.channel_rt}:"
        f"{subseeds.script}:{subseeds.interleave}"
    )
    return random.Random(key)


def component_state_pools(
    system: DataLinkSystem,
) -> Tuple[Tuple[object, ...], ...]:
    """Locally-reachable state pools for the four composed components.

    Runs a short deterministic probe: wake both directions, submit a
    few ghost messages, and run bounded fair bursts after each input,
    interning every visited component state.  The walk uses only the
    system itself (the fair scheduler is a deterministic round-robin),
    so rebuilding the same system yields the same pools.
    """
    tables = tuple(InternTable() for _ in range(4))

    def record(state) -> None:
        for table, component in zip(tables, state):
            table.intern(component)

    automaton = system.automaton
    walk = ExecutionFragment.initial(system.initial_state())
    factory = MessageFactory(label="g")
    inputs = [system.wake_t(), system.wake_r()] + [
        system.send(factory.fresh()) for _ in range(PROBE_MESSAGES)
    ]
    for action in inputs:
        walk.step(action, automaton.step(walk.final_state, action))
        try:
            run_to_quiescence(automaton, walk, max_steps=PROBE_BURST)
        except FairnessTimeout:
            pass
    for state in walk.states:
        record(state)
    return tuple(tuple(table.values) for table in tables)


def corrupt_initial_state(
    system: DataLinkSystem, subseeds
) -> Tuple[object, ...]:
    """A corrupted composed start state for one arbitrary-init run.

    Each component starts in some state it could locally reach from
    ``system``'s clean start; the combination is generally not jointly
    reachable.  Pure in ``(system, subseeds)``: the probe walk is
    deterministic and the per-component choice draws from
    :func:`corruption_rng`.
    """
    pools = component_state_pools(system)
    rng = corruption_rng(subseeds)
    return tuple(pool[rng.randrange(len(pool))] for pool in pools)


# ----------------------------------------------------------------------
# The stabilization metric
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class StabilizationReport:
    """How long a behavior took to reach a violation-free suffix.

    ``length`` is the number of behavior events examined, ``time`` the
    number of events before the longest clean suffix (0 = clean from
    the start, ``length`` = no clean suffix at all), and ``converged``
    is True iff a non-empty clean suffix exists (trivially True for an
    empty behavior).
    """

    length: int
    time: int
    converged: bool


def stabilization_report(
    behavior: Sequence[Action], t: str = "t", r: str = "r"
) -> StabilizationReport:
    """Measure the longest violation-free suffix of a finite behavior.

    A suffix is *clean* when each ``receive_msg`` in it (i) delivers a
    message some ``send_msg`` in the *full* behavior submitted (no
    ghosts left over from the corrupted start), (ii) delivers no
    message twice within the suffix, and (iii) respects submission
    order within the suffix.  One backward scan finds the first
    breaking event from the right: an event that breaks taints every
    suffix containing it, so everything after the last break is the
    longest clean suffix.
    """
    send_key = (SEND_MSG, (t, r))
    receive_key = (RECEIVE_MSG, (t, r))
    send_order = {}
    for index, action in enumerate(behavior):
        if action.key == send_key:
            send_order.setdefault(action.payload, index)
    delivered = set()
    min_send_index = None
    time = 0
    for position in range(len(behavior) - 1, -1, -1):
        action = behavior[position]
        if action.key != receive_key:
            continue
        message = action.payload
        order = send_order.get(message)
        if (
            order is None  # ghost: never submitted
            or message in delivered  # duplicate within the suffix
            or (min_send_index is not None and order > min_send_index)
        ):
            time = position + 1
            break
        delivered.add(message)
        min_send_index = (
            order
            if min_send_index is None
            else min(min_send_index, order)
        )
    length = len(behavior)
    return StabilizationReport(
        length=length,
        time=time,
        converged=length == 0 or time < length,
    )

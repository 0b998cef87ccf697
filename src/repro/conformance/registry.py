"""Fuzz registries: which protocols and channels the fuzzer composes.

The conformance fuzzer is a *composition* harness: any registered
protocol can be driven over any registered channel family.  Protocol
entries are zero-argument factories (the fuzzer never parameterizes
them mid-campaign, so a campaign is fully described by two registry
names plus a seed).  Channel entries are
:class:`ChannelFamily` pairs: a seed-free directed channel automaton,
built once per campaign, and the seeded start state a run puts it in
(the paper's start-state choice, Section 2.2), through
:meth:`~repro.sim.network.DataLinkSystem.started` like every other
seeded caller.  The permissive families realize the paper's C-hat
(FIFO) and C-bar (non-FIFO) with a seeded delivery set in that start
state, and the bounded family with a seeded :class:`BoundedPlan`, so the
channel adversary replays exactly.

Names are normalized (``-`` and ``_`` interchangeable), matching the
``repro fuzz --protocol/--channel`` CLI flags.
"""

from __future__ import annotations

from typing import Callable, Dict, NamedTuple

from ..channels.bounded import BoundedChannel, BoundedChannelState, BoundedPlan
from ..channels.delivery_set import random_lossy_fifo, random_reordering
from ..channels.permissive import (
    PermissiveChannel,
    PermissiveChannelState,
    PermissiveFifoChannel,
)
from ..datalink.protocol import DataLinkProtocol
from ..ioa.automaton import Automaton
from ..protocols import (
    alternating_bit_protocol,
    baratz_segall_protocol,
    direct_protocol,
    eager_protocol,
    fragmenting_protocol,
    modulo_stenning_protocol,
    selective_repeat_protocol,
    sliding_window_protocol,
    stenning_protocol,
)

#: name -> zero-argument protocol factory.
FUZZ_PROTOCOLS: Dict[str, Callable[[], DataLinkProtocol]] = {
    "alternating_bit": lambda: alternating_bit_protocol(),
    "stenning": lambda: stenning_protocol(),
    "mod_stenning": lambda: modulo_stenning_protocol(4),
    "sliding_window": lambda: sliding_window_protocol(2),
    "selective_repeat": lambda: selective_repeat_protocol(2),
    "baratz_segall": lambda: baratz_segall_protocol(nonvolatile=True),
    "fragmentation": lambda: fragmenting_protocol(chunk=1, max_fragments=3),
    # The negative controls: ``naive`` is the retransmitting,
    # non-deduplicating strawman (duplicates under any retransmission),
    # ``naive_direct`` the fire-and-forget one (loses under any loss).
    "naive": lambda: eager_protocol(),
    "naive_direct": lambda: direct_protocol(),
}


def _normalize(name: str) -> str:
    return name.replace("-", "_")


def _entry(registry: Dict[str, Callable], kind: str, name: str) -> Callable:
    key = _normalize(name)
    if key not in registry:
        raise KeyError(
            f"unknown fuzz {kind} {name!r}; available: "
            + ", ".join(sorted(registry))
        )
    return registry[key]


def check_fuzz_names(protocol: str, channel: str) -> None:
    """Raise ``KeyError`` for an unregistered name, building nothing."""
    _entry(FUZZ_PROTOCOLS, "protocol", protocol)
    _entry(FUZZ_CHANNELS, "channel", channel)


def resolve_fuzz_protocol(name: str) -> DataLinkProtocol:
    """Build a registered protocol from its fuzz-registry name."""
    return _entry(FUZZ_PROTOCOLS, "protocol", name)()


class ChannelFamily(NamedTuple):
    """A channel family: ``automaton(src, dst)`` builds the directed
    channel, ``start(seed, loss, window, horizon, capacity)`` the start
    state one run's sub-seed and fault mix put it in."""

    automaton: Callable[[str, str], Automaton]
    start: Callable[[int, float, int, int, int], object]


def _fifo_start(seed, loss_rate, reorder_window, horizon, capacity):
    """C-hat: a seeded monotone (lossy FIFO) delivery set."""
    delivery = random_lossy_fifo(seed, loss_rate, horizon)
    return PermissiveChannelState(delivery=delivery)


def _nonfifo_start(seed, loss_rate, reorder_window, horizon, capacity):
    """C-bar: a seeded reordering + lossy delivery set."""
    delivery = random_reordering(seed, loss_rate, reorder_window, horizon)
    return PermissiveChannelState(delivery=delivery)


#: name -> channel family; ``perfect`` is the loss-free FIFO control
#: (the identity delivery set), ``bounded_nonfifo`` the bounded-capacity
#: lossy reordering channel (arXiv:1011.3632), whose plan takes the
#: start builder's arguments as they come.
FUZZ_CHANNELS: Dict[str, ChannelFamily] = {
    "fifo": ChannelFamily(PermissiveFifoChannel, _fifo_start),
    "nonfifo": ChannelFamily(PermissiveChannel, _nonfifo_start),
    "perfect": ChannelFamily(
        PermissiveFifoChannel, lambda *knobs: PermissiveChannelState()
    ),
    "bounded_nonfifo": ChannelFamily(
        BoundedChannel, lambda *knobs: BoundedChannelState(plan=BoundedPlan(*knobs))
    ),
}


def resolve_fuzz_channel(name: str) -> ChannelFamily:
    """Look up a channel family by fuzz-registry name."""
    return _entry(FUZZ_CHANNELS, "channel", name)

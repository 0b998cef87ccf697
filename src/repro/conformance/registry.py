"""Fuzz registries: which protocols and channels the fuzzer composes.

The conformance fuzzer is a *composition* harness: any registered
protocol can be driven over any registered channel family.  Protocol
entries are zero-argument factories (the fuzzer never parameterizes
them mid-campaign, so a campaign is fully described by two registry
names plus a seed).  Channel entries build one directed physical
channel from a sub-seed and the campaign's fault mix; the permissive
families realize the paper's C-hat (FIFO) and C-bar (non-FIFO) with a
seeded delivery set, so the channel adversary replays exactly.

Names are normalized (``-`` and ``_`` interchangeable), matching the
``repro fuzz --protocol/--channel`` CLI flags.
"""

from __future__ import annotations

from typing import Callable, Dict

from ..channels.bounded import BoundedChannel
from ..channels.delivery_set import random_lossy_fifo, random_reordering
from ..channels.permissive import PermissiveChannel, PermissiveFifoChannel
from ..datalink.protocol import DataLinkProtocol
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


def _fifo_channel(
    src, dst, seed, loss_rate, reorder_window, horizon, capacity=4
):
    """C-hat with a seeded monotone (lossy FIFO) delivery set."""
    return PermissiveFifoChannel(
        src,
        dst,
        initial_delivery=random_lossy_fifo(seed, loss_rate, horizon),
        name=f"fuzz-fifo[{src}->{dst},seed={seed}]",
    )


def _nonfifo_channel(
    src, dst, seed, loss_rate, reorder_window, horizon, capacity=4
):
    """C-bar with a seeded reordering + lossy delivery set."""
    return PermissiveChannel(
        src,
        dst,
        initial_delivery=random_reordering(
            seed, loss_rate, reorder_window, horizon
        ),
        name=f"fuzz-nonfifo[{src}->{dst},seed={seed}]",
    )


def _perfect_channel(
    src, dst, seed, loss_rate, reorder_window, horizon, capacity=4
):
    """A loss-free FIFO control channel (the identity delivery set)."""
    return PermissiveFifoChannel(
        src, dst, name=f"fuzz-perfect[{src}->{dst}]"
    )


def _bounded_nonfifo_channel(
    src, dst, seed, loss_rate, reorder_window, horizon, capacity=4
):
    """Bounded-capacity non-FIFO lossy channel (arXiv:1011.3632)."""
    return BoundedChannel(
        src,
        dst,
        seed=seed,
        loss_rate=loss_rate,
        reorder_window=reorder_window,
        horizon=horizon,
        capacity=capacity,
        name=f"fuzz-bounded[{src}->{dst},seed={seed},cap={capacity}]",
    )


#: name -> channel builder ``(src, dst, seed, loss, window, horizon,
#: capacity=4)``.
FUZZ_CHANNELS: Dict[str, Callable] = {
    "fifo": _fifo_channel,
    "nonfifo": _nonfifo_channel,
    "perfect": _perfect_channel,
    "bounded_nonfifo": _bounded_nonfifo_channel,
}


def resolve_fuzz_channel(name: str) -> Callable:
    """Look up a channel builder by fuzz-registry name."""
    return _entry(FUZZ_CHANNELS, "channel", name)

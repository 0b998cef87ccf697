"""Concrete scripted channels for simulation (lossy FIFO, reordering).

The permissive channels of Section 6 are *universal*: any loss/reorder
behavior is a choice of delivery set.  For simulation and property
testing we therefore build concrete channels as permissive channels whose
delivery set is generated pseudo-randomly from a seed -- deterministic,
replayable adversaries.  The sets are drawn block by block as a run
reads receive slots (see :mod:`repro.channels.delivery_set`), so the
large default horizon costs nothing unless a run hashes or compares
channel states, which needs the whole set.

``lossy_fifo_channel`` produces a FIFO physical channel that drops each
packet independently; ``reordering_channel`` produces a non-FIFO channel
with bounded reordering windows and optional loss.
"""

from __future__ import annotations

from typing import Optional

from .delivery_set import random_lossy_fifo, random_reordering
from .permissive import PermissiveChannel, PermissiveFifoChannel

DEFAULT_HORIZON = 100_000


def lossy_fifo_channel(
    src: str,
    dst: str,
    seed: int = 0,
    loss_rate: float = 0.0,
    horizon: int = DEFAULT_HORIZON,
    name: Optional[str] = None,
) -> PermissiveFifoChannel:
    """A FIFO physical channel dropping packets i.i.d. with ``loss_rate``.

    Beyond ``horizon`` sends, the channel becomes loss-free FIFO (the
    delivery-set representation requires an eventually-FIFO tail).  The
    delivery set is drawn on demand, so a run that never hashes its
    states pays only for the slots it receives: choose the horizon
    larger than any simulated run.
    """
    delivery = random_lossy_fifo(seed, loss_rate, horizon)
    return PermissiveFifoChannel(
        src,
        dst,
        initial_delivery=delivery,
        name=name or f"lossy-fifo[{src}->{dst},p={loss_rate},seed={seed}]",
    )


def reordering_channel(
    src: str,
    dst: str,
    seed: int = 0,
    loss_rate: float = 0.0,
    window: int = 4,
    horizon: int = DEFAULT_HORIZON,
    name: Optional[str] = None,
) -> PermissiveChannel:
    """A non-FIFO physical channel with windowed reordering and loss.

    Like :func:`lossy_fifo_channel`, FIFO beyond ``horizon`` sends and
    drawn on demand.
    """
    delivery = random_reordering(seed, loss_rate, window, horizon)
    return PermissiveChannel(
        src,
        dst,
        initial_delivery=delivery,
        name=name
        or f"reorder[{src}->{dst},w={window},p={loss_rate},seed={seed}]",
    )


def perfect_fifo_channel(
    src: str, dst: str, name: Optional[str] = None
) -> PermissiveFifoChannel:
    """A loss-free FIFO channel (the identity delivery set)."""
    return PermissiveFifoChannel(
        src, dst, name=name or f"perfect-fifo[{src}->{dst}]"
    )

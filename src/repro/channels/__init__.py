"""The physical layer (paper, Sections 3 and 6): specs and channels."""

from .actions import (
    CRASH,
    FAIL,
    RECEIVE_PKT,
    SEND_PKT,
    WAKE,
    crash,
    fail,
    packet_families,
    physical_layer_signature,
    receive_pkt,
    send_pkt,
    wake,
)
from .bounded import BoundedChannel, BoundedChannelState
from .delivery_set import (
    DeliverySet,
    DeliverySetError,
    random_lossy_fifo,
    random_reordering,
)
from .modules import pl_fifo_module, pl_module
from .nondet import NondetLossyFifoChannel
from .permissive import (
    ChannelSurgeryError,
    PermissiveChannel,
    PermissiveChannelState,
    PermissiveFifoChannel,
)
from .properties import (
    crash_intervals,
    pl1,
    pl2,
    pl3,
    pl4,
    pl5,
    pl6,
    pl6_finite_diagnostic,
    pl_well_formed,
    unbounded_working_interval,
    working_intervals,
)

__all__ = [
    "BoundedChannel",
    "BoundedChannelState",
    "CRASH",
    "ChannelSurgeryError",
    "DeliverySet",
    "DeliverySetError",
    "FAIL",
    "NondetLossyFifoChannel",
    "PermissiveChannel",
    "PermissiveChannelState",
    "PermissiveFifoChannel",
    "RECEIVE_PKT",
    "SEND_PKT",
    "WAKE",
    "crash",
    "crash_intervals",
    "fail",
    "packet_families",
    "physical_layer_signature",
    "pl1",
    "pl2",
    "pl3",
    "pl4",
    "pl5",
    "pl6",
    "pl6_finite_diagnostic",
    "pl_fifo_module",
    "pl_module",
    "pl_well_formed",
    "random_lossy_fifo",
    "random_reordering",
    "receive_pkt",
    "send_pkt",
    "unbounded_working_interval",
    "wake",
    "working_intervals",
]

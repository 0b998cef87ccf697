"""Simulation harness: sessions, schedulers, faults, metrics, load.

The public construction surface is the :class:`Session` façade
(:mod:`repro.sim.session`); :mod:`repro.sim.load` multiplexes
thousands of such sessions through the fuzzer's batched warm-worker
pool (:func:`repro.conformance.pool.run_partitioned`), which also
gives each session its ``--run-timeout`` guard and contains its
failures.
"""

# Anchor the sim <-> datalink import cycle: datalink.correctness
# imports our faults/session modules mid-initialization, which fails if
# *this* package started the chain (``import repro.sim`` first).
# Loading the datalink package up front pins a working resolution
# order; it is a no-op whenever datalink is already imported.
from .. import datalink as _datalink  # noqa: F401
from .faults import FaultPlan, GeneratedScript, crash_storm, generate_script
from .metrics import (
    ChannelStats,
    DeliveryStats,
    channel_stats,
    delivery_stats,
    distinct_headers_used,
    percentile,
    percentile_summary,
)
from .network import (
    DataLinkSystem,
    custom_system,
    fifo_system,
    permissive_system,
)
from .runner import ScenarioResult
from .scheduler import (
    behaviors_under_schedules,
    deterministic_tie_break,
    seeded_tie_break,
)
from .session import Checkpoints, Session

__all__ = [
    "ChannelStats",
    "Checkpoints",
    "DataLinkSystem",
    "DeliveryStats",
    "FaultPlan",
    "GeneratedScript",
    "ScenarioResult",
    "Session",
    "behaviors_under_schedules",
    "channel_stats",
    "crash_storm",
    "custom_system",
    "delivery_stats",
    "deterministic_tie_break",
    "distinct_headers_used",
    "fifo_system",
    "generate_script",
    "percentile",
    "percentile_summary",
    "permissive_system",
    "seeded_tie_break",
]

"""Shrinking as it was before candidates resumed from checkpoints.

Every candidate was re-executed from the initial state, drained to
quiescence and judged by :func:`check_execution` on the whole run.
This module keeps that verdict as the differential reference for the
shrinker (``tests/conformance/test_shrink.py``,
``benchmarks/bench_shrink.py``); the deletion search around it is the
shrinker's own :func:`~repro.conformance.shrink.shrink_search`.
"""

from __future__ import annotations

from typing import Sequence

from repro.conformance.harness import FuzzConfig, SubSeeds, execute_script
from repro.conformance.oracles import check_execution
from repro.conformance.shrink import ShrinkResult, shrink_search
from repro.ioa.actions import Action
from repro.sim.network import DataLinkSystem


def reference_shrink(
    system: DataLinkSystem,
    actions: Sequence[Action],
    oracle_name: str,
    subseeds: SubSeeds,
    config: FuzzConfig,
) -> ShrinkResult:
    """``shrink_script`` with every candidate re-executed in full."""

    def still_violates(candidate: Sequence[Action]) -> bool:
        result = execute_script(system, candidate, subseeds, config)
        return bool(
            check_execution(system, result, config, target=oracle_name)
        )

    return shrink_search(system, actions, oracle_name, config, still_violates)

"""Coverage dedup as it was before delivery sets hashed a window.

A delivery set used to hash all its fields, ``hash((prefix,
tail_offset))``, cached on the instance, so hashing a seeded set drew
its whole horizon.  ``InternTable.intern`` probed with ``get`` and
stored on a miss, hashing each new state twice.  This module keeps both
as the differential reference for coverage dedup
(``tests/conformance/test_dedup.py``, ``benchmarks/bench_dedup.py``).
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from typing import Hashable, List, Optional, Tuple

from repro.channels.delivery_set import DeliverySet
from repro.conformance import SubSeeds
from repro.conformance.corpus import DEFAULT_COVERAGE_THRESHOLD
from repro.conformance.harness import FuzzConfig, resolve_pair
from repro.conformance.pool import execute_run
from repro.ioa.engine import InternTable


def _field_hash(self) -> int:
    # Its own cache attribute: a value the window hash cached earlier
    # must not answer for the field hash.
    value = getattr(self, "_field_hash", None)
    if value is None:
        value = hash((self.prefix, self.tail_offset))
        object.__setattr__(self, "_field_hash", value)
    return value


@contextmanager
def field_hashed_sets():
    """Delivery sets hash every field while the block runs."""
    window_hash = DeliverySet.__hash__
    DeliverySet.__hash__ = _field_hash
    try:
        yield
    finally:
        DeliverySet.__hash__ = window_hash


class ReferenceInternTable(InternTable):
    """``intern`` as a probe, then a store on a miss."""

    __slots__ = ()

    def intern(self, value: Hashable) -> int:
        ident = self._ids.get(value)
        if ident is None:
            ident = len(self.values)
            self._ids[value] = ident
            self.values.append(value)
        return ident


#: One corpus entry as the comparison sees it:
#: ``(run index, reason, oracle, new states)``.
CorpusRow = Tuple[int, str, Optional[str], int]


def reference_coverage(
    protocol: str, channel: str, seed: int, config: FuzzConfig
) -> Tuple[int, List[int], List[CorpusRow]]:
    """A serial campaign's coverage under the field hash.

    Returns the interned state count, each run's new states and the
    corpus rows, with the campaign's schedule and corpus rule.
    """
    master = random.Random(seed)
    schedule = [SubSeeds.derive(master) for _ in range(config.runs)]
    table = ReferenceInternTable()
    new_states: List[int] = []
    corpus: List[CorpusRow] = []
    with field_hashed_sets():
        resolved = resolve_pair(protocol, channel)
        for index, subseeds in enumerate(schedule):
            outcome = execute_run(
                protocol,
                channel,
                seed,
                index,
                subseeds,
                config,
                resolved=resolved,
            )
            before = len(table)
            for state in outcome.state_values:
                table.intern(state)
            fresh = len(table) - before
            new_states.append(fresh)
            if outcome.violations:
                corpus += [
                    (index, "violation", packaged.violation.oracle, fresh)
                    for packaged in outcome.violations
                ]
            elif fresh >= DEFAULT_COVERAGE_THRESHOLD:
                corpus.append((index, "coverage", None, fresh))
    return len(table), new_states, corpus

"""The streaming oracle pass against the old one-scan-per-predicate pass.

``check_execution`` feeds every DL/PL monitor from one pass over the
behavior and one over the action list; the reference pass in
``tests/conformance/reference_oracles.py`` scans the trace once per
predicate and bisects each violated prefix-scope oracle.  A ratio timed
in one process holds across runner hardware, where absolute times do
not.  Run from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/bench_oracles.py --benchmark-disable -q
"""

from __future__ import annotations

import random
import time

from repro.conformance import (
    FuzzConfig,
    SubSeeds,
    build_script,
    build_system,
    check_execution,
    execute_script,
)
from tests.conformance import reference_oracles as reference

#: (protocol, channel, seed, runs): an acquitted and a convicted campaign.
CAMPAIGNS = (
    ("alternating_bit", "fifo", 11, 40),
    ("naive", "nonfifo", 5, 40),
)

#: About 2.7x on a 2-vCPU x86-64 box; the floor leaves room for a
#: loaded runner.
ORACLE_SPEEDUP_FLOOR = 2.0


def _executions():
    config = FuzzConfig()
    runs = []
    for protocol, channel, seed, count in CAMPAIGNS:
        master = random.Random(seed)
        for _ in range(count):
            subseeds = SubSeeds.derive(master)
            system = build_system(protocol, channel, subseeds, config)
            script = build_script(system, subseeds, config)
            result = execute_script(system, script.actions, subseeds, config)
            runs.append((system, result))
    return config, runs


def _best_of(check, config, runs, repeats=5):
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        for system, result in runs:
            check(system, result, config)
        best = min(best, time.perf_counter() - started)
    return best


def test_streaming_oracles_outpace_the_reference_pass():
    config, runs = _executions()
    for system, result in runs:
        found = check_execution(system, result, config)
        expected = reference.check_execution(system, result, config)
        assert list(found) == list(expected)
        assert found.checks == expected.checks
    streaming = _best_of(check_execution, config, runs)
    scanning = _best_of(reference.check_execution, config, runs)
    assert scanning / streaming >= ORACLE_SPEEDUP_FLOOR, (scanning, streaming)

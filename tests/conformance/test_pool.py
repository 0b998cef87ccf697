"""The deterministic-merge contract of the fuzz worker pool.

``fuzz_campaign(workers=N)`` must be byte-identical to ``workers=1``:
same violations, same shrunk scripts, same repro documents, same corpus,
same counters, same trace stream.  Plus the hardening guards: a run
that crashes its worker or exceeds the per-run wall-clock budget is
recorded as a failed run, never a dead campaign.
"""

from __future__ import annotations

import math
import os
import time

import pytest

from repro.conformance import FuzzConfig, fuzz_campaign
from repro.conformance.registry import FUZZ_PROTOCOLS
from repro.datalink.protocol import DataLinkProtocol
from repro.obs import MemorySink, tracing

#: naive violates over both channel families, so every compared field
#: (violations, shrunk repros, corpus, counters) is non-trivial.
PROTOCOL = "naive"
CONFIG = FuzzConfig(runs=6)


def _fingerprint(campaign):
    report = campaign.report().to_dict()
    report["duration_s"] = None
    report["details"].pop("pool", None)
    return {
        "report": report,
        "runs": campaign.runs,
        "repros": [v.repro for v in campaign.violations],
        "shrunk": [v.shrunk_length for v in campaign.violations],
        "corpus": campaign.corpus,
        "states_interned": campaign.states_interned,
        "oracle_checks": campaign.oracle_checks,
    }


@pytest.mark.parametrize("seed", [3, 7, 11])
@pytest.mark.parametrize("channel", ["fifo", "nonfifo"])
def test_workers_4_matches_serial_field_for_field(seed, channel):
    serial = fuzz_campaign(PROTOCOL, channel, seed, CONFIG)
    pooled = fuzz_campaign(PROTOCOL, channel, seed, CONFIG, workers=4)
    assert _fingerprint(serial) == _fingerprint(pooled)


def test_trace_stream_is_worker_count_invariant():
    def events_for(workers):
        sink = MemorySink()
        with tracing(sink) as tracer:
            fuzz_campaign(PROTOCOL, "nonfifo", 7, CONFIG, workers=workers)
            counters = tracer.snapshot_counters()
        normalized = [
            (
                event.kind,
                event.name,
                event.span,
                event.parent,
                tuple(sorted(event.fields.items())),
                event.value if event.kind in ("counter", "gauge") else None,
            )
            for event in sink.events
        ]
        return normalized, counters

    serial_events, serial_counters = events_for(1)
    pooled_events, pooled_counters = events_for(4)
    assert serial_events == pooled_events
    assert serial_counters == pooled_counters


# -- batch-boundary determinism -----------------------------------------
#
# The batched merge must stay byte-identical to serial wherever the
# batch boundaries land: runs not divisible by the worker count, a
# degenerate one-run-per-task batching, and a single batch swallowing
# the whole schedule.  Batches are always auto-sized, so the tests pin
# a layout by replacing ``pool.auto_batch_size``.


def _pin_batch_size(monkeypatch, size):
    from repro.conformance import pool

    monkeypatch.setattr(pool, "auto_batch_size", lambda runs, workers: size)


@pytest.mark.parametrize(
    "workers,batch_size",
    [
        (3, None),  # 7 runs over 3 workers: auto-sized, uneven split
        (4, 3),  # final batch is a 1-run remainder
        (4, 1),  # degenerate: one task per run
        (4, 64),  # batch larger than the whole schedule: one task
    ],
)
def test_batch_boundaries_match_serial(monkeypatch, workers, batch_size):
    config = FuzzConfig(runs=7)
    serial = fuzz_campaign(PROTOCOL, "nonfifo", 13, config)
    if batch_size is not None:
        _pin_batch_size(monkeypatch, batch_size)
    pooled = fuzz_campaign(
        PROTOCOL, "nonfifo", 13, config, workers=workers
    )
    assert _fingerprint(serial) == _fingerprint(pooled)
    assert pooled.pool["mode"] == "fork"
    if batch_size is not None:
        assert pooled.pool["batch_size"] == batch_size
        assert pooled.pool["batches"] == math.ceil(7 / batch_size)


@pytest.mark.parametrize("workers", [1, 2])
def test_campaign_batches_are_auto_sized(workers):
    from repro.conformance.pool import auto_batch_size

    runs = 9
    campaign = fuzz_campaign(
        "alternating_bit", "fifo", 4, FuzzConfig(runs=runs), workers=workers
    )
    pool = campaign.report().to_dict()["details"]["pool"]
    size = auto_batch_size(runs, workers)
    assert pool["batch_size"] == size
    assert pool["batches"] == math.ceil(runs / size)


def test_pool_modes_are_surfaced():
    # workers=1 is plain serial, no fallback annotation.
    serial = fuzz_campaign(PROTOCOL, "perfect", 3, FuzzConfig(runs=2))
    assert serial.pool["mode"] == "serial"
    assert "fallback_reason" not in serial.pool
    # Parallelism requested but the schedule is below the pool
    # threshold: the campaign must say so instead of silently serializing.
    fallback = fuzz_campaign(
        PROTOCOL, "perfect", 3, FuzzConfig(runs=1), workers=4
    )
    assert fallback.pool["mode"] == "serial-fallback"
    assert "threshold" in fallback.pool["fallback_reason"]
    # ... and the RunReport envelope carries it to the CLI/JSON side.
    details = fallback.report().to_dict()["details"]["pool"]
    assert details["mode"] == "serial-fallback"
    assert "threshold" in details["fallback_reason"]


# -- hardening guards ---------------------------------------------------


def _strawman(transmitter_factory) -> DataLinkProtocol:
    from repro.protocols.naive import DirectReceiver

    return DataLinkProtocol(
        name="crash-test",
        transmitter_factory=transmitter_factory,
        receiver_factory=DirectReceiver,
        description="fault-injection strawman for the pool tests",
    )


def test_worker_crash_is_contained():
    from repro.conformance import pool
    from repro.protocols.naive import DirectTransmitter

    class CrashingTransmitter(DirectTransmitter):
        def initial_core(self):
            if pool._WORKER:
                # Hard death, bypassing the in-worker containment: the
                # pool must survive the broken-executor fallout.
                os._exit(39)
            raise RuntimeError("injected crash")

    FUZZ_PROTOCOLS["_crash_test"] = lambda: _strawman(CrashingTransmitter)
    try:
        campaign = fuzz_campaign(
            "_crash_test",
            "perfect",
            5,
            FuzzConfig(runs=3, shrink=False),
            workers=2,
        )
    finally:
        del FUZZ_PROTOCOLS["_crash_test"]
    assert len(campaign.runs) == 3
    assert all(run.error is not None for run in campaign.runs)
    assert campaign.failed_runs == 3
    assert campaign.pool["failures"] == 3
    assert campaign.violations == []
    assert campaign.report().counters["fuzz.failed_runs"] == 3


def test_worker_crash_mid_batch_fails_only_that_batch(monkeypatch):
    """A hard worker death fails exactly the crashing batch's runs.

    Breaking the executor fails *every* pending future, so sibling
    batches observe the same BrokenProcessPool as the guilty one; the
    retry-once policy must absolve them (runs are pure) and pin the
    failure on the batch that breaks the pool twice.
    """
    import random

    from repro.conformance import SubSeeds, pool
    from repro.conformance.registry import FUZZ_CHANNELS

    seed, runs, batch_size = 9, 8, 3
    master = random.Random(seed)
    schedule = [SubSeeds.derive(master) for _ in range(runs)]
    # Run 4 sits in the middle batch (runs 3..5 at batch_size=3).
    crash_tr = schedule[4].channel_tr
    base = FUZZ_CHANNELS["perfect"]

    def crashing_start(chan_seed, loss, window, horizon, capacity):
        if pool._WORKER and chan_seed == crash_tr:
            os._exit(41)
        return base.start(chan_seed, loss, window, horizon, capacity)

    config = FuzzConfig(runs=runs, shrink=False)
    serial = fuzz_campaign(PROTOCOL, "perfect", seed, config)
    _pin_batch_size(monkeypatch, batch_size)
    FUZZ_CHANNELS["_crash_batch"] = base._replace(start=crashing_start)
    try:
        campaign = fuzz_campaign(
            PROTOCOL, "_crash_batch", seed, config, workers=2
        )
    finally:
        del FUZZ_CHANNELS["_crash_batch"]

    assert len(campaign.runs) == runs
    failed = [run.index for run in campaign.runs if run.error is not None]
    assert failed == [3, 4, 5]
    assert campaign.failed_runs == 3
    assert campaign.pool["failures"] == 3
    # The surviving batches are untouched: field-for-field what the
    # serial campaign produced for those runs.
    for index in (0, 1, 2, 6, 7):
        pooled_run, serial_run = campaign.runs[index], serial.runs[index]
        assert pooled_run.error is None
        assert pooled_run.subseeds == serial_run.subseeds
        assert pooled_run.steps == serial_run.steps
        assert pooled_run.quiescent == serial_run.quiescent
        assert pooled_run.behavior_length == serial_run.behavior_length


@pytest.mark.parametrize("broken_submit", [1, 2])
def test_broken_pool_at_submit_is_contained(monkeypatch, broken_submit):
    """A pool that breaks while batches are still being submitted.

    The first executor's ``broken_submit``-th ``submit`` (0-based)
    raises ``BrokenProcessPool``, as it does once a worker has died.
    The campaign contains it like a break seen at ``result()``: the
    unsubmitted batches re-execute, so every run equals the serial
    campaign, and no worker process outlives it.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    config = FuzzConfig(runs=8, shrink=False)
    serial = fuzz_campaign(PROTOCOL, "perfect", 9, config)
    _pin_batch_size(monkeypatch, 2)
    submit = ProcessPoolExecutor.submit
    submitted = {}

    def breaking_submit(self, *args, **kwargs):
        first = submitted.setdefault("executor", self)
        if self is first:
            submitted["count"] = submitted.get("count", -1) + 1
            if submitted["count"] == broken_submit:
                raise BrokenProcessPool("injected break at submit")
        return submit(self, *args, **kwargs)

    monkeypatch.setattr(ProcessPoolExecutor, "submit", breaking_submit)
    pooled = fuzz_campaign(PROTOCOL, "perfect", 9, config, workers=2)
    assert submitted["count"] >= broken_submit
    assert pooled.pool["failures"] == 0
    assert all(run.error is None for run in pooled.runs)
    assert _fingerprint(pooled) == _fingerprint(serial)
    assert multiprocessing.active_children() == []


def _fuzz_body(config):
    """The fuzz item body for ``run_batch``, as ``run_schedule`` builds it."""
    from repro.conformance.pool import execute_run

    def body(index, subseeds, resolved):
        return execute_run(
            PROTOCOL, "perfect", 5, index, subseeds, config, resolved=resolved
        )

    return body


def test_batch_budget_times_out_remaining_runs():
    """A batch gets len(batch) x run_timeout; once the budget is gone,
    unexecuted runs are recorded as timed out -- and the next batch
    starts with a fresh budget."""
    import random

    from repro.conformance import RunOutcome, SubSeeds
    from repro.conformance.pool import run_batch

    master = random.Random(5)
    schedule = [SubSeeds.derive(master) for _ in range(4)]
    body = _fuzz_body(FuzzConfig(runs=4, shrink=False))

    ticks = iter([0.0, 0.2, 50.0, 50.0])  # start, then one check per run

    outcomes = run_batch(
        body,
        RunOutcome,
        0,
        schedule[:3],
        run_timeout=1.0,
        clock=lambda: next(ticks),
    )
    first, second, third = outcomes
    assert first.error is None and not first.timed_out
    assert second.timed_out and "wall-clock" in second.error
    assert third.timed_out and "wall-clock" in third.error
    assert second.steps == 0  # never executed, only recorded
    # A later batch is unaffected: its own budget starts fresh.
    later = run_batch(body, RunOutcome, 3, schedule[3:], run_timeout=1.0)
    assert [run.error for run in later] == [None]


def test_run_timeout_records_failed_run():
    from repro.protocols.naive import DirectTransmitter

    class SlowTransmitter(DirectTransmitter):
        def initial_core(self):
            time.sleep(60)
            return super().initial_core()

    FUZZ_PROTOCOLS["_slow_test"] = lambda: _strawman(SlowTransmitter)
    try:
        started = time.perf_counter()
        campaign = fuzz_campaign(
            "_slow_test",
            "perfect",
            5,
            FuzzConfig(runs=1, shrink=False),
            run_timeout=0.2,
        )
        elapsed = time.perf_counter() - started
    finally:
        del FUZZ_PROTOCOLS["_slow_test"]
    assert elapsed < 30
    assert campaign.failed_runs == 1
    assert "wall-clock" in campaign.runs[0].error
    assert campaign.pool["timeouts"] == 1


def test_timeout_guard_unavailable_off_main_thread_is_surfaced():
    """SIGALRM handlers only install on the main thread: a run driven
    from a worker thread must still execute -- unguarded -- and the
    degradation must be reported, not swallowed."""
    import threading

    from repro.conformance import RunOutcome
    from repro.conformance.harness import SubSeeds
    from repro.conformance.pool import run_batch

    import random

    subseeds = SubSeeds.derive(random.Random(5))
    body = _fuzz_body(FuzzConfig(runs=1, shrink=False))
    holder = {}

    def drive():
        (holder["outcome"],) = run_batch(
            body, RunOutcome, 0, [subseeds], run_timeout=30.0
        )

    thread = threading.Thread(target=drive)
    thread.start()
    thread.join()
    outcome = holder["outcome"]
    assert outcome.error is None  # the run itself completed
    assert outcome.steps > 0
    assert outcome.timeout_unavailable is not None
    assert "main thread" in outcome.timeout_unavailable

    # Campaign-level surfacing: the counter fires and details.pool
    # carries the note.
    def campaign_in_thread():
        sink = MemorySink()
        with tracing(sink) as tracer:
            campaign = fuzz_campaign(
                PROTOCOL,
                "perfect",
                5,
                FuzzConfig(runs=2, shrink=False),
                run_timeout=30.0,
            )
            counters = tracer.snapshot_counters()
        holder["campaign"] = campaign
        holder["counters"] = counters

    thread = threading.Thread(target=campaign_in_thread)
    thread.start()
    thread.join()
    campaign = holder["campaign"]
    note = campaign.pool["timeout_unavailable"]
    assert note["runs"] == 2
    assert "main thread" in note["reason"]
    assert holder["counters"]["fuzz.pool.timeout_unavailable"] == 2
    assert (
        campaign.report().details["pool"]["timeout_unavailable"] == note
    )

    # On the main thread the guard arms and nothing is reported.
    guarded = fuzz_campaign(
        PROTOCOL,
        "perfect",
        5,
        FuzzConfig(runs=1, shrink=False),
        run_timeout=30.0,
    )
    assert "timeout_unavailable" not in guarded.pool

"""Batched process-pool execution of a schedule of independent items.

Two workloads run the paper's composed system D'(A) item by item: a
fuzz campaign (:func:`run_schedule`, one item = one judged and shrunk
run) and a load run (:func:`repro.sim.load.run_load`, one item = one
session).  Each item is a pure function of its index, its
:class:`SubSeeds` and the workload's fixed context, so the schedule
is derived serially up front and sharded into **batches** of
consecutive items; each batch is one task for a persistent
``multiprocessing`` fork pool.  State that spans items -- the fuzz
master's :class:`~repro.ioa.engine.interning.InternTable`, corpus
credit, load aggregates and the obs event stream -- stays with the
master, which merges outcomes **in index order**.  The merge is what
makes ``workers=N`` byte-identical to ``workers=1``: interning order,
corpus order, violation order and the trace stream never depend on
which worker finished first.

A workload supplies only its **item body** -- ``body(index, subseeds,
resolved)`` returning an outcome, free to raise -- and its **outcome
type**, a subclass of :class:`Outcome`.  Everything around a single
item lives here, once:

* the per-batch wall-clock budget and the per-item SIGALRM guard
  (:func:`run_batch`): a batch of N items gets N x ``run_timeout`` of
  total wall-clock, each item is still individually bounded by
  ``run_timeout``, and a batch that exhausts its budget records its
  remaining items as timed out without executing them;
* containment: any exception escaping an item -- a protocol bug, a
  timeout -- becomes a failed outcome (``error`` set), and a guard that
  was requested but could not be armed (no SIGALRM off the main thread)
  is reported on the outcome as ``timeout_unavailable`` instead of
  being dropped;
* event capture: when the calling process traces, each item runs under
  a fresh tracer of its own and its events -- the item body's own span
  and everything nested in it, partial if the item failed -- travel
  back on :attr:`Outcome.events`.  The master replays every outcome's
  chunk with :meth:`~repro.obs.Tracer.absorb` in index order, so a
  serial and a pooled schedule trace the same stream, each item span
  timed where the item ran;
* the fork initializer (:func:`_init_worker`), which records whether
  the master traced, detaches the inherited tracer and resolves the
  registry pair once per worker (the serial path resolves once per
  schedule), and its one worker-globals dict :data:`_WORKER`;
* the broken-pool protocol (:func:`run_partitioned`): a worker dying
  mid-batch breaks the whole executor (failing every sibling's pending
  future too), so the shared pool is rebuilt, unfinished batches are
  resubmitted, and each batch that observed the breakage is retried on
  a dedicated one-worker executor that only its own items can break:
  an innocent batch re-executes cleanly (items are pure, so the do-over
  is byte-identical), and a genuinely crashy batch fails exactly its
  own items;
* the telemetry (:class:`PoolInfo`), which tallies failures, timeouts
  and unarmed guards as outcomes stream past and renders the
  ``details.pool`` dict both reports carry.

Why batches rather than one task per item:

* **amortized IPC**: one submit/result round-trip and one pickle per
  batch instead of per item;
* **warm workers**: the executor is built once per schedule and stays
  up across batches;
* **compact streaming**: a batch ships as one tuple of outcomes, and
  the outcome type may compact it before it leaves the worker
  (:meth:`Outcome.compact`).  Fuzz runs use this to ship each distinct
  visited state at most once per batch (:meth:`RunOutcome.compact`).
  Compaction runs in workers only: a serial schedule ships nothing, and
  its master interns every run's states in run order anyway.  States
  travel as plain values: their slices cache structural hashes
  in-process only (:mod:`repro.hashing`), so the master rehashes each
  unpickled value once under its own hash seed.

Batches are sized from the schedule length and the worker count alone
(:func:`auto_batch_size`): the layout tunes only speed, and the merged
result is the same at every size.

Short schedules are still executed in-process (forking pays off only
once there is enough work to amortize pool start-up), and on platforms
without a ``fork`` start method the schedule degrades to serial -- but
not silently: :class:`PoolInfo` reports ``mode="serial-fallback"``
plus the reason, which the CLI surfaces as a stderr warning and
``details.pool`` telemetry.

Note that a triggered timeout is inherently wall-clock-dependent, so a
schedule that hits one is only deterministic in its surviving items;
the default (no timeout) preserves the full determinism contract.
"""

from __future__ import annotations

import signal
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Type

from ..ioa.automaton import State
from ..obs import MemorySink, current_tracer, set_tracer, tracing
from ..obs.events import Event
from .harness import (
    FuzzConfig,
    SubSeeds,
    build_script,
    build_system,
    execute_script,
    resolve_pair,
)
from .oracles import OracleViolation, check_execution

#: Below this many scheduled items the schedule stays in-process: pool
#: start-up (forking ``workers`` interpreters) costs more than the items.
PARALLEL_THRESHOLD = 2

#: Auto-sized batches aim for this many batches per worker, so a slow
#: batch (one shrink-heavy run) cannot serialize the whole schedule
#: behind a single worker.
BATCHES_PER_WORKER = 4

#: Auto-sized batches never exceed this many items: a crashed worker
#: fails its whole batch, so unbounded batches would trade containment
#: granularity for diminishing IPC savings.
MAX_AUTO_BATCH = 16


class RunTimeout(Exception):
    """An item exceeded its per-item wall-clock budget."""


@dataclass
class Outcome:
    """The fields of one item's outcome that the pool itself fills in.

    A workload's outcome type subclasses this and adds its results.
    ``error`` is set for a contained failure (the item raised, timed
    out or lost its worker); ``timeout_unavailable`` says why a
    requested wall-clock guard could not be armed (the item still ran,
    unguarded); ``duration_s`` is the item's wall-clock time, telemetry
    outside every identity contract.  ``events`` is the item's captured
    obs chunk (empty unless the calling process traces), which the
    master absorbs into its own stream.
    """

    index: int
    subseeds: Optional[SubSeeds] = None
    error: Optional[str] = None
    timed_out: bool = False
    timeout_unavailable: Optional[str] = None
    duration_s: float = 0.0
    events: Tuple[Event, ...] = ()

    @classmethod
    def compact(cls, outcomes: Sequence["Outcome"]) -> None:
        """Shrink one batch's outcomes in place before they ship.

        Runs inside the worker only (:func:`_pool_batch`): it must not
        change what the master's in-order merge computes.  The default
        keeps everything.
        """


#: ``body(index, subseeds, resolved)``: one item, free to raise.
Body = Callable[[int, SubSeeds, object], Outcome]


@dataclass
class RunOutcome(Outcome):
    """Everything one fuzz run sends back to the campaign master.

    ``state_values`` are the run's *distinct* visited states, plain
    values in first-occurrence order
    (:meth:`~repro.sim.runner.ScenarioResult.distinct_states`).  The
    master interns them (in run-index order) to assign coverage
    credit, so workers never touch the shared
    :class:`~repro.ioa.engine.interning.InternTable`.
    """

    steps: int = 0
    quiescent: bool = False
    behavior_length: int = 0
    stabilization_time: Optional[int] = None
    stab_converged: Optional[bool] = None
    state_values: Tuple[State, ...] = ()
    found: List[OracleViolation] = field(default_factory=list)
    violations: List["ViolationReport"] = field(default_factory=list)  # noqa: F821
    oracle_checks: int = 0

    @classmethod
    def compact(cls, outcomes: Sequence["RunOutcome"]) -> None:
        """Attach each state value to the first run of the batch that
        visited it and strip it from later runs' ``state_values``.

        By the time the master merges a later run, the earlier run
        already interned the value, so the coverage credit and the
        table's insertion order are unchanged while the value crosses
        the process boundary once.  The state slices cache their own
        structural hashes (:mod:`repro.hashing`), so this pass costs a
        shallow tuple hash per state.
        """
        shipped: set = set()
        for outcome in outcomes:
            if outcome.state_values:
                fresh = [
                    value
                    for value in outcome.state_values
                    if value not in shipped
                ]
                shipped.update(fresh)
                outcome.state_values = tuple(fresh)


@dataclass
class PoolInfo:
    """How a schedule was executed, and what its outcomes reported.

    ``mode`` is ``"fork"`` when a process pool is actually used,
    ``"serial"`` when the caller asked for one worker, and
    ``"serial-fallback"`` when parallelism was *requested but not
    delivered* (schedule below the threshold, no ``fork`` start
    method, or fork denied by the OS) -- the case the CLI warns about.
    The tallies fill in as the outcome iterator is consumed;
    :meth:`details` renders the ``details.pool`` telemetry dict.
    """

    mode: str
    workers: int
    batch_size: int
    batches: int
    fallback_reason: Optional[str] = None
    run_timeout: Optional[float] = None
    failures: int = 0
    timeouts: int = 0
    unguarded: int = 0
    unguarded_reason: Optional[str] = None

    def record(self, outcome: Outcome) -> None:
        if outcome.timeout_unavailable:
            self.unguarded += 1
            self.unguarded_reason = outcome.timeout_unavailable
        if outcome.error is not None:
            self.failures += 1
            self.timeouts += 1 if outcome.timed_out else 0

    def details(self) -> Dict[str, object]:
        details: Dict[str, object] = {
            "mode": self.mode,
            "workers": self.workers,
            "batch_size": self.batch_size,
            "batches": self.batches,
            "run_timeout": self.run_timeout,
            "failures": self.failures,
            "timeouts": self.timeouts,
        }
        if self.unguarded:
            details["timeout_unavailable"] = {
                "runs": self.unguarded,
                "reason": self.unguarded_reason,
            }
        if self.fallback_reason:
            details["fallback_reason"] = self.fallback_reason
        return details


@contextmanager
def _alarm(seconds: Optional[float]):
    """Raise :class:`RunTimeout` if the block runs longer than ``seconds``.

    SIGALRM-based, so it interrupts a wedged item mid-step (a plain
    after-the-fact duration check could not).  Yields a guard-status
    dict: ``armed`` says whether a timer actually protects the block,
    and ``unavailable`` carries the reason when a *requested* guard
    could not be installed -- no ``setitimer`` on the platform, or
    ``signal.signal`` refused because we are not on the main thread.
    In both cases the block still runs, just unguarded.
    """
    status = {"armed": False, "unavailable": None}
    if not seconds:
        yield status
        return
    if not hasattr(signal, "setitimer"):  # pragma: no cover - non-POSIX
        status["unavailable"] = "no SIGALRM timers on this platform"
        yield status
        return

    def _on_alarm(signum, frame):
        raise RunTimeout(f"run exceeded the {seconds}s wall-clock budget")

    try:
        previous = signal.signal(signal.SIGALRM, _on_alarm)
    except ValueError:
        # signal handlers can only be installed from the main thread;
        # a schedule driven from another thread runs unguarded.
        status["unavailable"] = (
            "SIGALRM handlers require the main thread; "
            "run executed without a wall-clock guard"
        )
        yield status
        return
    status["armed"] = True
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield status
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@contextmanager
def _capturing(capture: bool):
    """Capture the block's obs events into a list (empty when off).

    The list is filled when the block *exits*, normally or by an
    exception (``MemorySink.events`` is a snapshot), so read it only
    after the ``with`` statement; a failed block keeps its partial
    events.
    """
    captured: list = []
    if not capture:
        yield captured
        return
    sink = MemorySink()
    try:
        with tracing(sink):
            yield captured
    finally:
        captured.extend(sink.events)


def execute_run(
    protocol: str,
    channel: str,
    seed: int,
    index: int,
    subseeds: SubSeeds,
    config: FuzzConfig,
    resolved=None,
) -> RunOutcome:
    """One complete fuzz run: build, execute, judge, shrink, package.

    The fuzz item body, traced as one ``fuzz.run`` span.  Pure in its
    arguments, which is the whole parallelization argument: the master
    can replay the outcome stream in index order and obtain the serial
    campaign verbatim.  ``resolved`` is a
    :func:`~repro.conformance.harness.resolve_pair` result shared by
    every run of the schedule: its stations and their tables carry over
    from run to run.
    """
    from .fuzzer import _package_violation

    with current_tracer().span("fuzz.run", index=index, seed=seed):
        system = build_system(
            protocol, channel, subseeds, config, resolved=resolved
        )
        script = build_script(system, subseeds, config)
        result = execute_script(system, script.actions, subseeds, config)
        found = check_execution(system, result, config)
        stab = found.stabilization
        packaged = []
        seen = set()
        for violation in found:
            if violation.oracle in seen:
                continue
            seen.add(violation.oracle)
            packaged.append(
                _package_violation(
                    protocol,
                    channel,
                    seed,
                    index,
                    subseeds,
                    config,
                    system,
                    script.actions,
                    violation,
                )
            )
        return RunOutcome(
            index=index,
            subseeds=subseeds,
            steps=result.steps,
            quiescent=result.quiescent,
            behavior_length=len(result.behavior),
            stabilization_time=None if stab is None else stab.time,
            stab_converged=None if stab is None else stab.converged,
            state_values=tuple(result.distinct_states()),
            found=found,
            violations=packaged,
            oracle_checks=found.checks,
        )


def run_batch(
    body: Body,
    outcome: Type[Outcome],
    start: int,
    batch: Sequence[SubSeeds],
    run_timeout: Optional[float] = None,
    resolved=None,
    clock: Callable[[], float] = time.perf_counter,
) -> Tuple[Outcome, ...]:
    """Execute one batch of consecutive items inside a single worker.

    Each item runs ``body`` under the wall-clock guard, and every
    exception it raises is contained into an ``outcome`` with
    ``error`` set.  When the calling process traces, each item's obs
    events, partial ones included, are captured onto its outcome's
    ``events``.  With ``run_timeout`` set, the whole batch gets
    ``len(batch) * run_timeout`` seconds: each item's SIGALRM allowance
    is the smaller of ``run_timeout`` and the batch's remaining budget,
    so a batch whose early items eat the budget (timer overshoot,
    signal latency, slow teardown between items) records its remaining
    items as timed out instead of overrunning; a batch of fast items
    never notices.  ``clock`` exists so tests can drive the accounting
    deterministically.
    """
    # A pool worker detached the tracer it inherited at fork and kept
    # whether it traced (:func:`_init_worker`); in-process, the
    # caller's own tracer says.
    capture = _WORKER["capture"] if _WORKER else current_tracer().enabled
    budget = run_timeout * len(batch) if run_timeout else None
    batch_started = clock()
    outcomes: List[Outcome] = []
    for offset, subseeds in enumerate(batch):
        index = start + offset
        allowance = run_timeout
        if budget is not None:
            remaining = budget - (clock() - batch_started)
            if remaining <= 0:
                outcomes.append(
                    outcome(
                        index=index,
                        subseeds=subseeds,
                        error=(
                            f"batch exhausted its {budget}s wall-clock "
                            f"budget before run {index}"
                        ),
                        timed_out=True,
                    )
                )
                continue
            allowance = min(run_timeout, remaining)
        started = time.perf_counter()
        guard = {"unavailable": None}
        events: list = []
        try:
            # The alarm is disarmed before the capture restores the
            # caller's tracer, so a late SIGALRM cannot interrupt that.
            with _capturing(capture) as events, _alarm(allowance) as guard:
                item = body(index, subseeds, resolved)
        except RunTimeout as exc:
            item = outcome(
                index=index, subseeds=subseeds, error=str(exc), timed_out=True
            )
        except Exception as exc:  # containment: one item, not the schedule
            item = outcome(
                index=index,
                subseeds=subseeds,
                error=f"{type(exc).__name__}: {exc}",
            )
        item.timeout_unavailable = guard["unavailable"]
        item.duration_s = time.perf_counter() - started
        item.events = tuple(events)
        outcomes.append(item)
    return tuple(outcomes)


def auto_batch_size(runs: int, workers: int) -> int:
    """Batch size targeting ~:data:`BATCHES_PER_WORKER` batches/worker.

    Small enough that item-cost skew (one shrink-heavy run)
    load-balances across workers and a crashed worker fails a bounded
    slice of the schedule, large enough that per-batch IPC stops
    dominating cheap items; capped at :data:`MAX_AUTO_BATCH`.
    """
    spread = max(1, workers) * BATCHES_PER_WORKER
    return max(1, min(MAX_AUTO_BATCH, -(-runs // spread)))


# Worker-side globals, installed by the fork initializer.
_WORKER: dict = {}


def _init_worker(
    protocol: str,
    channel: str,
    body: Body,
    outcome: Type[Outcome],
    run_timeout: Optional[float],
) -> None:
    # The fork inherits the master's installed tracer -- including any
    # open JSONL sink file handle.  Keep only whether it traces, and
    # detach: run_batch captures each item into its own MemorySink and
    # the master replays the chunks.
    capture = current_tracer().enabled
    set_tracer(None)
    # Warm start: resolve the registry entries once per worker process,
    # so every item shares the stations and their tables.  The workload
    # validated the names already, so this cannot ordinarily raise.
    # ``body`` is a closure: the fork start method inherits it instead
    # of pickling it.
    _WORKER.update(
        capture=capture,
        body=body,
        outcome=outcome,
        run_timeout=run_timeout,
        resolved=resolve_pair(protocol, channel),
    )


def _pool_batch(task: Tuple[int, Tuple[SubSeeds, ...]]) -> Tuple[Outcome, ...]:
    start, batch = task
    outcomes = run_batch(
        _WORKER["body"],
        _WORKER["outcome"],
        start,
        batch,
        run_timeout=_WORKER["run_timeout"],
        resolved=_WORKER["resolved"],
    )
    _WORKER["outcome"].compact(outcomes)
    return outcomes


def run_partitioned(
    protocol: str,
    channel: str,
    schedule: Sequence[SubSeeds],
    body: Body,
    outcome: Type[Outcome],
    workers: int = 1,
    run_timeout: Optional[float] = None,
) -> Tuple[Iterator[Outcome], PoolInfo]:
    """Run ``body`` over ``schedule`` and yield one ``outcome`` per
    item, strictly in schedule order.

    Items are sharded into batches of :func:`auto_batch_size`
    consecutive items, executed through
    :func:`run_batch` in-process or on a persistent fork pool of
    ``workers`` processes that :func:`_init_worker` warms with the
    ``(protocol, channel)`` registry pair (either way, resolved once
    per process).  An item whose worker died is recorded as a failed
    ``outcome``; see the module docstring for
    the broken-pool protocol.  The iterator is lazy, so the master
    merges each batch as it completes instead of buffering the whole
    schedule, and it tallies every outcome into the returned
    :class:`PoolInfo`.  A negative ``run_timeout``, and ``workers``
    below 1, are configuration errors and raise :class:`ValueError`.
    """
    if run_timeout is not None and run_timeout < 0:
        raise ValueError(f"run_timeout must not be negative: {run_timeout}")
    if workers < 1:
        raise ValueError(f"workers must be at least 1: {workers}")
    requested_parallel = workers > 1
    fallback_reason = None
    context = None
    if requested_parallel and len(schedule) >= PARALLEL_THRESHOLD:
        import multiprocessing

        try:
            context = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-fork platforms
            fallback_reason = "no fork start method on this platform"
    elif requested_parallel:
        fallback_reason = (
            f"{len(schedule)} scheduled run(s) below the "
            f"{PARALLEL_THRESHOLD}-run pool threshold"
        )

    batch_size = auto_batch_size(len(schedule), workers)
    batches: List[Tuple[int, Tuple[SubSeeds, ...]]] = [
        (start, tuple(schedule[start : start + batch_size]))
        for start in range(0, len(schedule), batch_size)
    ]
    info = PoolInfo(
        mode="fork",
        workers=workers,
        batch_size=batch_size,
        batches=len(batches),
        run_timeout=run_timeout,
    )

    def _tallied(outcomes: Iterator[Outcome]) -> Iterator[Outcome]:
        for item in outcomes:
            info.record(item)
            yield item

    def _serial(reason: Optional[str]) -> Tuple[Iterator[Outcome], PoolInfo]:
        info.mode = "serial-fallback" if requested_parallel else "serial"
        info.fallback_reason = reason if requested_parallel else None
        # Resolve once, as each pool worker does: every item shares the
        # stations and their tables, which die with this iterator.
        resolved = resolve_pair(protocol, channel)
        outcomes = (
            item
            for start, batch in batches
            for item in run_batch(
                body, outcome, start, batch, run_timeout, resolved
            )
        )
        return _tallied(outcomes), info

    if context is None:
        return _serial(fallback_reason)

    # concurrent.futures rather than multiprocessing.Pool: when a
    # worker process dies abruptly (os._exit, segfault, OOM kill) the
    # Pool silently loses the task and ``.get()`` blocks forever,
    # whereas the executor fails every pending future with
    # BrokenProcessPool -- which is what makes crash containment
    # possible at all.
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    def _make_executor(max_workers: Optional[int] = None) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=max_workers or min(workers, len(batches)),
            mp_context=context,
            initializer=_init_worker,
            initargs=(protocol, channel, body, outcome, run_timeout),
        )

    try:
        executor = _make_executor()
    except OSError:  # pragma: no cover - fork denied
        return _serial("process pool unavailable (fork denied)")

    def _failed(start: int, batch: Tuple, message: str) -> Iterator[Outcome]:
        for offset, subseeds in enumerate(batch):
            yield outcome(index=start + offset, subseeds=subseeds, error=message)

    def _pooled() -> Iterator[Outcome]:
        pool = executor
        futures = {
            number: pool.submit(_pool_batch, batch)
            for number, batch in enumerate(batches)
        }
        try:
            for number, (start, batch) in enumerate(batches):
                try:
                    yield from futures[number].result()
                except BrokenProcessPool:
                    # A worker died mid-batch.  The in-worker containment
                    # never lets an exception escape an item, so this is
                    # a hard death (os._exit, signal).  A broken executor
                    # fails *every* unfinished future, though, so this
                    # batch may merely be collateral of a crash in a
                    # sibling batch.  Rebuild the shared pool, resubmit
                    # every later batch that never finished cleanly,
                    # then retry this batch on a *dedicated* one-worker
                    # executor: only the batch's own items can break it,
                    # so a retry failure pins the crash on exactly this
                    # batch, while an innocent batch re-executes cleanly
                    # (items are pure, so the do-over is byte-identical).
                    pool = _make_executor()
                    for later in range(number + 1, len(batches)):
                        future = futures[later]
                        if not (
                            future.done() and future.exception() is None
                        ):
                            futures[later] = pool.submit(
                                _pool_batch, batches[later]
                            )
                    try:
                        retry = _make_executor(max_workers=1)
                        try:
                            yield from retry.submit(
                                _pool_batch, batches[number]
                            ).result()
                        finally:
                            retry.shutdown(wait=True, cancel_futures=True)
                    except (BrokenProcessPool, OSError):
                        yield from _failed(
                            start, batch, "worker crashed: process pool broken"
                        )
                except Exception as exc:
                    yield from _failed(
                        start,
                        batch,
                        f"worker crashed: {type(exc).__name__}: {exc}",
                    )
        finally:
            # By the time we get here every yielded batch has been
            # consumed (or the master is aborting), so waiting is
            # cheap -- and skipping the wait leaves the executor's
            # wakeup pipe to be torn down at interpreter exit, which
            # races the atexit hook into "Bad file descriptor" noise.
            pool.shutdown(wait=True, cancel_futures=True)

    return _tallied(_pooled()), info


def run_schedule(
    protocol: str,
    channel: str,
    seed: int,
    schedule: Sequence[SubSeeds],
    config: FuzzConfig,
    workers: int = 1,
    run_timeout: Optional[float] = None,
) -> Tuple[Iterator[RunOutcome], PoolInfo]:
    """Execute a fuzz schedule; yields outcomes strictly in run-index
    order.

    The fuzz workload over :func:`run_partitioned`: the item body is
    :func:`execute_run` and the outcome type :class:`RunOutcome`.
    Returns ``(outcome iterator, pool info)``; see :class:`PoolInfo`
    for the mode vocabulary.
    """

    def body(index: int, subseeds: SubSeeds, resolved) -> RunOutcome:
        return execute_run(
            protocol, channel, seed, index, subseeds, config, resolved=resolved
        )

    return run_partitioned(
        protocol,
        channel,
        schedule,
        body,
        RunOutcome,
        workers=workers,
        run_timeout=run_timeout,
    )

"""Batched process-pool execution of a fuzz campaign's run schedule.

Each fuzz run is independent once its :class:`SubSeeds` are derived:
the system, script, execution, oracle verdicts and shrunk repros are
all pure functions of ``(protocol, channel, seed, index, subseeds,
config)``.  The campaign therefore derives the full sub-seed schedule
serially up front (bit-identical to a serial campaign) and shards it
into **batches** of consecutive runs; each batch is one task for a
persistent ``multiprocessing`` fork pool.  Only campaign-global state
-- the :class:`~repro.ioa.engine.interning.InternTable`, corpus credit
and the obs event stream -- stays with the master, which merges worker
results **in run-index order**.  The merge is what makes ``workers=N``
byte-identical to ``workers=1``: interning order, corpus order,
violation order and the trace stream never depend on which worker
finished first.

Why batches rather than one task per run (the PR-5 design):

* **amortized IPC**: one submit/result round-trip and one pickle per
  ~``batch_size`` runs instead of per run, which is what previously
  made a 4-worker pool *slower* than serial on cheap campaigns;
* **warm workers**: the executor is built once per campaign (workers
  fork once, with the protocol/channel registries pre-imported and
  pre-resolved by the initializer) and stays up across batches;
* **in-worker shrinking**: ddmin shrinking and repro packaging run
  inside :func:`execute_run`, i.e. inside the worker -- the master
  never re-executes a scenario;
* **compact streaming**: a :class:`BatchOutcome` carries each run's
  distinct visited states *deduplicated across the whole batch* (a
  state value is shipped at most once per batch, attached to the run
  that saw it first) and the batch's obs event chunks, so the payload
  back to the master shrinks with cross-run state overlap.  States
  travel as plain values: their slices cache structural hashes
  in-process only (:mod:`repro.hashing`), so the master rehashes each
  unpickled value once under its own hash seed.

Short schedules are still executed in-process (forking pays off only
once there is enough work to amortize pool start-up), and on platforms
without a ``fork`` start method the schedule degrades to serial -- but
no longer *silently*: the returned :class:`PoolInfo` reports
``mode="serial-fallback"`` plus the reason, which the CLI surfaces as
a stderr warning and ``details.pool`` telemetry.

Two hardening guards ride along, applied identically in serial and
pool mode:

* a per-run wall-clock guard (``run_timeout`` seconds, SIGALRM-based
  where available) that abandons a runaway run instead of hanging the
  campaign -- in batched mode with **per-batch budget accounting**: a
  batch of N runs gets N x ``run_timeout`` of total wall-clock, each
  run is still individually bounded by ``run_timeout``, and a batch
  that exhausts its budget records its remaining runs as timed out
  without executing them; and
* worker-crash containment: any exception escaping a run -- a protocol
  bug, a timeout, a dying worker process -- is recorded as a *failed
  run* (:class:`RunOutcome` with ``error`` set) and the campaign
  continues.  A worker dying mid-batch breaks the whole executor
  (failing every sibling's pending future too), so the shared pool is
  rebuilt, unfinished batches are resubmitted, and each batch that
  observed the breakage is retried on a dedicated one-worker executor
  that only its own runs can break: an innocent batch re-executes
  cleanly (runs are pure, so the do-over is byte-identical), and a
  genuinely crashy batch fails exactly its own runs.

Note that a triggered timeout is inherently wall-clock-dependent, so a
campaign that hits one is only deterministic in its surviving runs;
the default (no timeout) preserves the full determinism contract.
"""

from __future__ import annotations

import signal
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

from ..ioa.automaton import State
from ..obs import MemorySink, set_tracer, tracing
from ..obs.events import Event
from .harness import FuzzConfig, SubSeeds, build_script, build_system, execute_script
from .oracles import OracleViolation, check_execution

#: Below this many scheduled runs the campaign stays in-process: pool
#: start-up (forking ``workers`` interpreters) costs more than the runs.
PARALLEL_THRESHOLD = 2

#: Auto-sized batches aim for this many batches per worker, so a slow
#: batch (one shrink-heavy run) cannot serialize the whole campaign
#: behind a single worker.
BATCHES_PER_WORKER = 4

#: Auto-sized batches never exceed this many runs: a crashed worker
#: fails its whole batch, so unbounded batches would trade containment
#: granularity for diminishing IPC savings.
MAX_AUTO_BATCH = 16


class RunTimeout(Exception):
    """A fuzz run exceeded the campaign's per-run wall-clock budget."""


@dataclass
class RunOutcome:
    """Everything one fuzz run sends back to the campaign master.

    ``state_values`` are the run's *distinct* visited states, plain
    values in first-occurrence order
    (:meth:`~repro.sim.runner.ScenarioResult.distinct_states`).  The
    master interns them (in run-index order) to assign coverage
    credit, so workers never touch the shared
    :class:`~repro.ioa.engine.interning.InternTable`.  Deduplicating
    within the run does not change the interning credit (a duplicate
    can never grow the table), and :func:`run_batch` further strips
    values already shipped by an earlier run of the *same batch* --
    those are already in the master table by the time this run is
    merged, so the credit and the table's insertion order still come
    out byte-identical to a serial campaign.  The state slices cache
    their own structural hashes (:mod:`repro.hashing`), so each of
    these dedup passes costs a shallow tuple hash per state.

    ``pre_events`` and ``post_events`` are the run's captured obs
    chunks -- everything emitted before and after the interning point
    of a serial campaign loop -- which the master replays around its
    own ``fuzz.states_interned`` counter to reproduce the serial
    stream.
    """

    index: int
    subseeds: SubSeeds
    steps: int = 0
    quiescent: bool = False
    behavior_length: int = 0
    stabilization_time: Optional[int] = None
    stab_converged: Optional[bool] = None
    state_values: Tuple[State, ...] = ()
    found: List[OracleViolation] = field(default_factory=list)
    violations: List["ViolationReport"] = field(default_factory=list)  # noqa: F821
    oracle_checks: int = 0
    pre_events: Tuple[Event, ...] = ()
    post_events: Tuple[Event, ...] = ()
    error: Optional[str] = None
    timed_out: bool = False
    #: why the requested wall-clock guard could not be armed for this
    #: run (None when it armed, or was never requested); the run still
    #: executed, just unguarded.
    timeout_unavailable: Optional[str] = None
    duration_s: float = 0.0


@dataclass
class BatchOutcome:
    """One batch's worth of run outcomes, shipped master-ward as a unit.

    ``outcomes`` are in run-index order (``start``, ``start+1``, ...).
    Packaging a whole batch into one message is the compactness play:
    one pickle and one result-queue round-trip per batch, and the
    batch-level state dedup in :func:`run_batch` means every distinct
    state value crosses the process boundary at most once per batch.
    """

    start: int
    outcomes: Tuple[RunOutcome, ...]


@dataclass(frozen=True)
class PoolInfo:
    """How :func:`run_schedule` decided to execute the schedule.

    ``mode`` is ``"fork"`` when a process pool is actually used,
    ``"serial"`` when the caller asked for one worker, and
    ``"serial-fallback"`` when parallelism was *requested but not
    delivered* (schedule below the threshold, no ``fork`` start
    method, or fork denied by the OS) -- the case the CLI warns about.
    """

    mode: str
    workers: int
    batch_size: int
    batches: int
    fallback_reason: Optional[str] = None


@contextmanager
def _alarm(seconds: Optional[float]):
    """Raise :class:`RunTimeout` if the block runs longer than ``seconds``.

    SIGALRM-based, so it interrupts a wedged run mid-step (a plain
    after-the-fact duration check could not).  Yields a guard-status
    dict: ``armed`` says whether a timer actually protects the block,
    and ``unavailable`` carries the reason when a *requested* guard
    could not be installed -- no ``setitimer`` on the platform, or
    ``signal.signal`` refused because we are not on the main thread.
    In both cases the block still runs, just unguarded; the campaign
    surfaces the degradation (``fuzz.pool.timeout_unavailable``)
    instead of hiding it.
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
        # a campaign embedded in a worker thread runs unguarded.
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

    The list is filled when the block *exits* (``MemorySink.events`` is
    a snapshot), so read it only after the ``with`` statement.
    """
    if not capture:
        yield []
        return
    sink = MemorySink()
    captured: list = []
    with tracing(sink):
        yield captured
    captured.extend(sink.events)


def execute_run(
    protocol: str,
    channel: str,
    seed: int,
    index: int,
    subseeds: SubSeeds,
    config: FuzzConfig,
    capture: bool = False,
    run_timeout: Optional[float] = None,
    resolved=None,
) -> RunOutcome:
    """One complete fuzz run: build, execute, judge, shrink, package.

    Pure in its arguments (modulo wall-clock fields), which is the
    whole parallelization argument: the master can replay the outcome
    stream in index order and obtain the serial campaign verbatim.
    Every exception is contained into a failed-run outcome.
    ``resolved`` is the warm-worker fast path: a pre-resolved
    ``(protocol, channel builder)`` pair from
    :func:`~repro.conformance.harness.resolve_pair`, so persistent
    workers skip the registry on every run.
    """
    from .fuzzer import _package_violation

    started = time.perf_counter()
    guard = {"armed": False, "unavailable": None}
    try:
        with _alarm(run_timeout) as guard:
            with _capturing(capture) as pre_events:
                system = build_system(
                    protocol, channel, subseeds, config, resolved=resolved
                )
                script = build_script(system, subseeds, config)
                result = execute_script(
                    system, script.actions, subseeds, config
                )
            with _capturing(capture) as post_events:
                found = check_execution(system, result, config)
                stab_time = None
                stab_converged = None
                if config.init_mode == "arbitrary":
                    from .arbitrary import stabilization_report

                    stab = stabilization_report(
                        result.behavior, system.t, system.r
                    )
                    stab_time = stab.time
                    stab_converged = stab.converged
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
    except RunTimeout as exc:
        return RunOutcome(
            index=index,
            subseeds=subseeds,
            error=str(exc),
            timed_out=True,
            duration_s=time.perf_counter() - started,
        )
    except Exception as exc:  # containment: a bad run must not kill the campaign
        return RunOutcome(
            index=index,
            subseeds=subseeds,
            error=f"{type(exc).__name__}: {exc}",
            timeout_unavailable=guard["unavailable"],
            duration_s=time.perf_counter() - started,
        )
    return RunOutcome(
        index=index,
        subseeds=subseeds,
        steps=result.steps,
        quiescent=result.quiescent,
        behavior_length=len(result.behavior),
        stabilization_time=stab_time,
        stab_converged=stab_converged,
        state_values=tuple(result.distinct_states()),
        found=found,
        violations=packaged,
        oracle_checks=found.checks,
        pre_events=tuple(pre_events),
        post_events=tuple(post_events),
        error=None,
        timeout_unavailable=guard["unavailable"],
        duration_s=time.perf_counter() - started,
    )


def run_batch(
    protocol: str,
    channel: str,
    seed: int,
    start: int,
    batch: Sequence[SubSeeds],
    config: FuzzConfig,
    capture: bool = False,
    run_timeout: Optional[float] = None,
    resolved=None,
    clock: Callable[[], float] = time.perf_counter,
) -> BatchOutcome:
    """Execute one batch of consecutive runs inside a single worker.

    Applies the per-batch wall-clock budget: with ``run_timeout`` set,
    the whole batch gets ``len(batch) * run_timeout`` seconds.  Each
    run's SIGALRM allowance is the smaller of ``run_timeout`` and the
    batch's remaining budget, so a batch whose early runs eat the
    budget (timer overshoot, signal latency, slow teardown between
    runs) records its remaining runs as timed out instead of
    overrunning; a batch of fast runs never notices.  ``clock`` exists
    so tests can drive the accounting deterministically.

    Also performs the batch-level state compaction: a state value is
    attached to the first run of the batch that visited it and
    stripped from later runs' ``state_values`` -- by the time the
    master merges a later run, the earlier run already interned the
    value, so the credit arithmetic is unchanged while the value
    crosses the process boundary once.
    """
    budget = run_timeout * len(batch) if run_timeout else None
    batch_started = clock()
    shipped: set = set()
    outcomes: List[RunOutcome] = []
    for offset, subseeds in enumerate(batch):
        index = start + offset
        allowance = run_timeout
        if budget is not None:
            remaining = budget - (clock() - batch_started)
            if remaining <= 0:
                outcomes.append(
                    RunOutcome(
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
        outcome = execute_run(
            protocol,
            channel,
            seed,
            index,
            subseeds,
            config,
            capture=capture,
            run_timeout=allowance,
            resolved=resolved,
        )
        if outcome.state_values:
            fresh = [
                value
                for value in outcome.state_values
                if value not in shipped
            ]
            shipped.update(fresh)
            outcome.state_values = tuple(fresh)
        outcomes.append(outcome)
    return BatchOutcome(start=start, outcomes=tuple(outcomes))


def auto_batch_size(runs: int, workers: int) -> int:
    """Batch size targeting ~:data:`BATCHES_PER_WORKER` batches/worker.

    Small enough that run-cost skew (one shrink-heavy run) load-balances
    across workers and a crashed worker fails a bounded slice of the
    schedule, large enough that per-batch IPC stops dominating cheap
    runs; capped at :data:`MAX_AUTO_BATCH`.
    """
    spread = max(1, workers) * BATCHES_PER_WORKER
    return max(1, min(MAX_AUTO_BATCH, -(-runs // spread)))


# Worker-side globals, installed by the fork initializer.
_WORKER: dict = {}


def _init_worker(
    protocol: str,
    channel: str,
    seed: int,
    config: FuzzConfig,
    capture: bool,
    run_timeout: Optional[float],
) -> None:
    # The fork inherits the master's installed tracer -- including any
    # open JSONL sink file handle.  Detach immediately: workers capture
    # into per-run MemorySinks and the master replays the chunks.
    set_tracer(None)
    # Warm start: resolve the registry entries once per worker process,
    # so no run pays a registry lookup (and a bad name fails loudly at
    # pool start-up, not mid-campaign -- the campaign driver validated
    # the names already, so this cannot ordinarily raise).
    from .harness import resolve_pair

    _WORKER.update(
        protocol=protocol,
        channel=channel,
        seed=seed,
        config=config,
        capture=capture,
        run_timeout=run_timeout,
        resolved=resolve_pair(protocol, channel),
    )


def _pool_batch(task: Tuple[int, Tuple[SubSeeds, ...]]) -> BatchOutcome:
    start, batch = task
    return run_batch(
        _WORKER["protocol"],
        _WORKER["channel"],
        _WORKER["seed"],
        start,
        batch,
        _WORKER["config"],
        capture=_WORKER["capture"],
        run_timeout=_WORKER["run_timeout"],
        resolved=_WORKER["resolved"],
    )


def run_partitioned(
    schedule: Sequence,
    *,
    serial_batch: Callable[[int, Sequence], Sequence],
    pool_task: Callable,
    initializer: Callable,
    initargs: Tuple,
    failed_outcome: Callable[[int, object, str], object],
    workers: int = 1,
    batch_size: Optional[int] = None,
    parallel_threshold: int = PARALLEL_THRESHOLD,
) -> Tuple[Iterator, PoolInfo]:
    """The generic batched warm-worker pool: shard ``schedule`` into
    batches of consecutive items, execute each batch through a
    persistent fork pool (or in-process), and yield per-item outcomes
    strictly in schedule order.

    This is the workload-agnostic core the fuzz campaign
    (:func:`run_schedule`) and the multi-session load generator
    (:mod:`repro.sim.load`) both run on.  A workload plugs in:

    * ``serial_batch(start, items)`` -- execute one batch in-process
      and return its outcomes (the serial / fallback path);
    * ``pool_task`` -- a *module-level picklable* callable mapping one
      ``(start, items)`` task to an object with an ``.outcomes``
      sequence, reading its fixed context from worker globals;
    * ``initializer``/``initargs`` -- the fork initializer that
      installs those worker globals (and detaches the inherited
      tracer);
    * ``failed_outcome(index, item, message)`` -- the error outcome
      recorded for an item whose worker died.

    Batching, auto-sizing, the serial-fallback vocabulary
    (:class:`PoolInfo`) and the broken-pool containment protocol
    (rebuild, resubmit unfinished batches, retry the observing batch
    on a dedicated one-worker executor so innocent batches are
    absolved) are identical for every workload; see the module
    docstring for why each exists.  The outcome iterator is lazy so
    the master merges each batch as it completes instead of buffering
    the whole schedule.
    """
    workers = max(1, int(workers))
    requested_parallel = workers > 1
    fallback_reason = None
    context = None
    if requested_parallel and len(schedule) >= parallel_threshold:
        import multiprocessing

        try:
            context = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-fork platforms
            fallback_reason = "no fork start method on this platform"
    elif requested_parallel:
        fallback_reason = (
            f"{len(schedule)} scheduled run(s) below the "
            f"{parallel_threshold}-run pool threshold"
        )

    if batch_size is None:
        batch_size = auto_batch_size(len(schedule), workers)
    batch_size = max(1, int(batch_size))
    starts = range(0, len(schedule), batch_size)
    n_batches = len(starts)

    def _serial_info(reason: Optional[str]) -> PoolInfo:
        return PoolInfo(
            mode="serial-fallback" if requested_parallel else "serial",
            workers=workers,
            batch_size=batch_size,
            batches=n_batches,
            fallback_reason=reason if requested_parallel else None,
        )

    def _serial() -> Iterator:
        for start in starts:
            yield from serial_batch(
                start, schedule[start : start + batch_size]
            )

    if context is None:
        return _serial(), _serial_info(fallback_reason)

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
            max_workers=max_workers or min(workers, n_batches),
            mp_context=context,
            initializer=initializer,
            initargs=initargs,
        )

    try:
        executor = _make_executor()
    except OSError:  # pragma: no cover - fork denied
        return _serial(), _serial_info(
            "process pool unavailable (fork denied)"
        )

    batches: List[Tuple[int, Tuple]] = [
        (start, tuple(schedule[start : start + batch_size]))
        for start in starts
    ]

    def _pooled() -> Iterator:
        pool = executor
        futures = {
            number: pool.submit(pool_task, batch)
            for number, batch in enumerate(batches)
        }
        try:
            for number, (start, batch) in enumerate(batches):
                try:
                    yield from futures[number].result().outcomes
                except BrokenProcessPool:
                    # A worker died mid-batch.  The in-worker containment
                    # never lets an exception escape a run, so this is a
                    # hard death (os._exit, signal).  A broken executor
                    # fails *every* unfinished future, though, so this
                    # batch may merely be collateral of a crash in a
                    # sibling batch.  Rebuild the shared pool, resubmit
                    # every later batch that never finished cleanly,
                    # then retry this batch on a *dedicated* one-worker
                    # executor: only the batch's own runs can break it,
                    # so a retry failure pins the crash on exactly this
                    # batch, while an innocent batch re-executes cleanly
                    # (runs are pure, so the do-over is byte-identical).
                    pool = _make_executor()
                    for later in range(number + 1, len(batches)):
                        future = futures[later]
                        if not (
                            future.done() and future.exception() is None
                        ):
                            futures[later] = pool.submit(
                                pool_task, batches[later]
                            )
                    try:
                        retry = _make_executor(max_workers=1)
                        try:
                            yield from (
                                retry.submit(pool_task, batches[number])
                                .result()
                                .outcomes
                            )
                        finally:
                            retry.shutdown(wait=True, cancel_futures=True)
                    except (BrokenProcessPool, OSError):
                        for offset, item in enumerate(batch):
                            yield failed_outcome(
                                start + offset,
                                item,
                                "worker crashed: process pool broken",
                            )
                except Exception as exc:
                    for offset, item in enumerate(batch):
                        yield failed_outcome(
                            start + offset,
                            item,
                            f"worker crashed: "
                            f"{type(exc).__name__}: {exc}",
                        )
        finally:
            # By the time we get here every yielded batch has been
            # consumed (or the campaign is aborting), so waiting is
            # cheap -- and skipping the wait leaves the executor's
            # wakeup pipe to be torn down at interpreter exit, which
            # races the atexit hook into "Bad file descriptor" noise.
            pool.shutdown(wait=True, cancel_futures=True)

    return _pooled(), PoolInfo(
        mode="fork",
        workers=workers,
        batch_size=batch_size,
        batches=n_batches,
    )


def run_schedule(
    protocol: str,
    channel: str,
    seed: int,
    schedule: Sequence[SubSeeds],
    config: FuzzConfig,
    workers: int = 1,
    run_timeout: Optional[float] = None,
    capture: bool = False,
    batch_size: Optional[int] = None,
    parallel_threshold: int = PARALLEL_THRESHOLD,
) -> Tuple[Iterator[RunOutcome], PoolInfo]:
    """Execute a fuzz schedule; yields outcomes strictly in run-index
    order.

    The fuzz-specific adapter over :func:`run_partitioned`: batches
    execute through :func:`run_batch` (in-process) or
    :func:`_pool_batch` (in a warm worker initialized by
    :func:`_init_worker`), and a run whose worker died is recorded as
    a failed :class:`RunOutcome`.  Returns ``(outcome iterator, pool
    info)``; see :class:`PoolInfo` for the mode vocabulary.
    ``batch_size`` fixes how many consecutive runs form one worker
    task (default: auto-sized from the schedule length and worker
    count via :func:`auto_batch_size`).
    """

    def _serial_batch(start, items):
        return run_batch(
            protocol,
            channel,
            seed,
            start,
            items,
            config,
            capture=capture,
            run_timeout=run_timeout,
        ).outcomes

    def _failed(index, subseeds, message):
        return RunOutcome(index=index, subseeds=subseeds, error=message)

    return run_partitioned(
        schedule,
        serial_batch=_serial_batch,
        pool_task=_pool_batch,
        initializer=_init_worker,
        initargs=(protocol, channel, seed, config, capture, run_timeout),
        failed_outcome=_failed,
        workers=workers,
        batch_size=batch_size,
        parallel_threshold=parallel_threshold,
    )

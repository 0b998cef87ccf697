"""The six benchmark workloads: their jobs, warm-ups and output checks.

A workload is an endless, seed-determined list of jobs; ``run.py`` runs
jobs ``0, 1, 2, ...`` back to back (one client, closed loop, no think
time) until its measuring window closes.  Job ``i`` of a fuzz or load
workload uses seed ``seed + i``; ``verify-zoo`` and ``refute-sweep`` are
deterministic constructions, so every job is the same sweep.

Jobs call the program only through public entry points, looked up on
their defining modules at call time (``fuzzer.fuzz_campaign``, not a
name bound at import), so the tracer's wrappers see every call.

Every job is checked right after it ran, outside its timing: invariants
that hold for any seed, plus the outputs pinned in ``expected.json`` for
job seeds it covers.  A job that fails a check counts all its units as
failed.  Its output is then dropped, so peak memory does not grow with
the number of jobs a run completes.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Tuple

from repro import protocols as zoo
from repro.analysis import model_check
from repro.conformance import fuzzer
from repro.conformance.harness import FuzzConfig
from repro.conformance.replay import replay
from repro.impossibility import crash_engine, header_engine
from repro.impossibility.certificates import EngineError
from repro.sim import load
from repro.sim.load import LoadConfig, with_load_mix

#: Runs per fuzz-clean / fuzz-pool2 campaign and per fuzz-shrink campaign.
CLEAN_RUNS = 100
SHRINK_RUNS = 20
LOAD_CONFIG = with_load_mix(LoadConfig(sessions=200, messages=4), "drop-flood")
POOL_WORKERS = 2
WARMUP_SEED = 0

#: (key, protocol factory, messages, capacity, reorder depth).  The last
#: case is the Section 8 contrast: ABP breaks under depth-2 reordering.
VERIFY_CASES: Tuple[Tuple[str, Callable, int, int, int], ...] = (
    ("abp-4/3/1", zoo.alternating_bit_protocol, 4, 3, 1),
    ("stenning-3/3/1", zoo.stenning_protocol, 3, 3, 1),
    ("sliding-window-2-3/2/1", lambda: zoo.sliding_window_protocol(2), 3, 2, 1),
    ("fragmenting-1-2-3/3/1", lambda: zoo.fragmenting_protocol(1, 2), 3, 3, 1),
    ("abp-2/3/2", zoo.alternating_bit_protocol, 2, 3, 2),
)

HEADER_VICTIMS: Tuple[Callable, ...] = tuple(
    [lambda n=n: zoo.modulo_stenning_protocol(n) for n in (16, 32, 64, 128)]
    + [lambda n=n: zoo.sliding_window_protocol(n) for n in (8, 16, 32, 64)]
    + [zoo.alternating_bit_protocol]
)
CRASH_VICTIMS: Tuple[Callable, ...] = tuple(
    [zoo.alternating_bit_protocol]
    + [lambda n=n: zoo.sliding_window_protocol(n) for n in (1, 2, 4, 8)]
    + [
        zoo.stenning_protocol,
        lambda: zoo.baratz_segall_protocol(nonvolatile=False),
        zoo.eager_protocol,
    ]
)


@dataclass
class Job:
    """One completed job: its work, its wall time and its output."""

    index: int
    seed: int
    units: int
    seconds: float
    output: object
    problems: List[str] = field(default_factory=list)
    #: How much slower than the reference machine this job ran.
    slowdown: float = 1.0


@dataclass(frozen=True)
class Workload:
    """How to run, warm up and check one workload.

    ``run(seed)`` returns ``(units, output)``.  ``warmup()`` runs a
    small job on the same code path, on an input that does not depend on
    the run's seed, so set-up times compare across seeds.
    ``summary(output)`` is the JSON-able part of an output that
    ``expected.json`` pins, under ``pins`` keyed by job seed (or by
    ``"sweep"`` when the seed does not matter).  ``check(job)`` lists
    the invariants the job's output violates.
    """

    name: str
    unit: str
    run: Callable[[int], Tuple[int, object]]
    warmup: Callable[[], object]
    summary: Callable[[object], object]
    check: Callable[[Job], List[str]]
    pins: str
    seeded: bool = True
    parallel: bool = False


# ----------------------------------------------------------------------
# fuzzing


def _campaign(protocol: str, channel: str, runs: int, workers: int = 1):
    def run(seed: int):
        campaign = fuzzer.fuzz_campaign(
            protocol, channel, seed, FuzzConfig(runs=runs), workers=workers
        )
        return len(campaign.runs), campaign

    return run


def _campaign_summary(campaign) -> dict:
    return {
        "steps": sum(run.steps for run in campaign.runs),
        "states_interned": campaign.states_interned,
        "corpus": len(campaign.corpus),
        "violations": len(campaign.violations),
        "shrunk_actions": sum(v.shrunk_length for v in campaign.violations),
    }


def _report_digest(campaign) -> str:
    """Digest of a campaign report without its execution telemetry
    (``duration_s`` and ``details.pool``) -- equal for equal outcomes."""
    report = campaign.report().to_dict()
    report.pop("duration_s", None)
    report.get("details", {}).pop("pool", None)
    encoded = json.dumps(report, sort_keys=True, default=str).encode()
    return hashlib.sha256(encoded).hexdigest()


def _check_acquitted(job: Job) -> List[str]:
    campaign = job.output
    problems = []
    if campaign.failed_runs:
        problems.append(f"{campaign.failed_runs} failed runs")
    if campaign.found_violation:
        problems.append("alternating_bit over fifo was convicted")
    return problems


def _check_pooled(job: Job) -> List[str]:
    """Acquitted, and the first pooled campaign of a run reports exactly
    what a serial campaign does (once per run: it costs a campaign)."""
    problems = _check_acquitted(job)
    if job.index == 0:
        _, serial = _campaign("alternating_bit", "fifo", CLEAN_RUNS)(job.seed)
        if _report_digest(serial) != _report_digest(job.output):
            problems.append("pooled report differs from serial")
    return problems


def _check_convicted(job: Job) -> List[str]:
    """Convicted, and every shrunk repro reproduces its violation."""
    campaign = job.output
    problems = []
    if campaign.failed_runs:
        problems.append(f"{campaign.failed_runs} failed runs")
    if not campaign.found_violation:
        problems.append("naive over nonfifo was acquitted")
    problems += [
        f"repro of run {v.run_index} ({v.violation.oracle}) did not reproduce"
        for v in campaign.violations
        if not replay(v.repro).reproduced
    ]
    return problems


# ----------------------------------------------------------------------
# load


def _load(seed: int):
    result = load.run_load("alternating_bit", "nonfifo", seed, LOAD_CONFIG)
    return len(result.sessions), result


def _load_summary(result) -> dict:
    report = result.report()
    latency = report.details["latency"]
    return {
        "counters": report.counters,
        "latency": {key: latency[key] for key in ("count", "p50", "p95", "p99", "max")},
    }


def _check_load(job: Job) -> List[str]:
    counters = job.output.report().counters
    problems = []
    if counters["load.failed_sessions"]:
        problems.append(f"{counters['load.failed_sessions']} failed sessions")
    if counters["load.nonquiescent_sessions"]:
        problems.append(
            f"{counters['load.nonquiescent_sessions']} sessions never quiesced"
        )
    if counters["load.sessions"] != LOAD_CONFIG.sessions:
        problems.append(f"{counters['load.sessions']} sessions reported")
    return problems


# ----------------------------------------------------------------------
# exhaustive verification


def _verify(cases) -> Callable[[int], Tuple[int, dict]]:
    def run(seed: int):
        results = {}
        for key, factory, messages, capacity, depth in cases:
            results[key] = model_check.verify_delivery_order(
                factory(), messages=messages, capacity=capacity, reorder_depth=depth
            )
        return sum(r.states_explored for r in results.values()), results

    return run


def _verify_summary(results) -> dict:
    return {
        key: {"states": r.states_explored, "ok": r.ok, "exhaustive": r.exhaustive}
        for key, r in results.items()
    }


def _check_verify(job: Job) -> List[str]:
    return [
        f"{key}: exploration truncated"
        for key, result in job.output.items()
        if not result.exhaustive
    ]


# ----------------------------------------------------------------------
# refutation


def _rejected(refute, protocol) -> bool:
    try:
        refute(protocol)
    except EngineError:
        return True
    return False


def _refute(header_victims, crash_victims):
    def run(seed: int):
        results = {"headers": {}, "crash": {}}
        for factory in header_victims:
            protocol = factory()
            certificate = header_engine.refute_bounded_headers(protocol)
            results["headers"][protocol.name] = (
                certificate,
                len(protocol.header_space()),
                certificate.validate(),
            )
        for factory in crash_victims:
            protocol = factory()
            certificate = crash_engine.refute_crash_tolerance(protocol)
            results["crash"][protocol.name] = (certificate, None, certificate.validate())
        # The boundary controls: outside each theorem's hypotheses the
        # engine must refuse (unbounded headers; a non-crashing protocol).
        results["controls"] = {
            "headers/stenning": _rejected(
                header_engine.refute_bounded_headers, zoo.stenning_protocol()
            ),
            "crash/baratz-segall-nonvolatile": _rejected(
                crash_engine.refute_crash_tolerance, zoo.baratz_segall_protocol()
            ),
        }
        units = len(results["headers"]) + len(results["crash"]) + len(results["controls"])
        return units, results

    return run


def _refute_summary(results) -> dict:
    summary = {}
    for theorem in ("headers", "crash"):
        for name, (certificate, _, _) in results[theorem].items():
            summary[f"{theorem}/{name}"] = {
                "pump_rounds": certificate.stats.get("pump_rounds"),
                "pump_levels": certificate.stats.get("pump_levels"),
                "length": len(certificate.behavior),
            }
    return summary


def _check_refute(job: Job) -> List[str]:
    results = job.output
    problems = []
    for theorem in ("headers", "crash"):
        for name, (certificate, headers, valid) in results[theorem].items():
            if not valid:
                problems.append(f"{theorem}/{name}: certificate failed validation")
            if headers is not None:
                # Lemma 8.4: the chain T <_k T' <_k ... has at most
                # k * |packet classes| = k * 2 * |headers| links.
                bound = certificate.stats["k"] * 2 * headers
                if certificate.stats["pump_rounds"] > bound:
                    problems.append(
                        f"{theorem}/{name}: {certificate.stats['pump_rounds']} "
                        f"pump rounds exceed the Lemma 8.4 bound {bound}"
                    )
    problems += [
        f"{control}: boundary control was not rejected"
        for control, rejected in results["controls"].items()
        if not rejected
    ]
    return problems


# ----------------------------------------------------------------------

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="fuzz-clean",
            unit="fuzz run",
            run=_campaign("alternating_bit", "fifo", CLEAN_RUNS),
            warmup=lambda: _campaign("alternating_bit", "fifo", 5)(WARMUP_SEED),
            summary=_campaign_summary,
            check=_check_acquitted,
            pins="fuzz-clean",
        ),
        Workload(
            name="fuzz-pool2",
            unit="fuzz run",
            run=_campaign("alternating_bit", "fifo", CLEAN_RUNS, POOL_WORKERS),
            warmup=lambda: _campaign(
                "alternating_bit", "fifo", 5, POOL_WORKERS
            )(WARMUP_SEED),
            summary=_campaign_summary,
            check=_check_pooled,
            pins="fuzz-clean",
            parallel=True,
        ),
        Workload(
            name="fuzz-shrink",
            unit="fuzz run",
            run=_campaign("naive", "nonfifo", SHRINK_RUNS),
            warmup=lambda: _campaign("naive", "nonfifo", 2)(WARMUP_SEED),
            summary=_campaign_summary,
            check=_check_convicted,
            pins="fuzz-shrink",
        ),
        Workload(
            name="load-dropflood",
            unit="session",
            run=_load,
            warmup=lambda: load.run_load(
                "alternating_bit", "nonfifo", WARMUP_SEED, replace(LOAD_CONFIG, sessions=10)
            ),
            summary=_load_summary,
            check=_check_load,
            pins="load-dropflood",
        ),
        Workload(
            name="verify-zoo",
            unit="explored state",
            run=_verify(VERIFY_CASES),
            warmup=lambda: _verify(
                (("abp-2/2/1", zoo.alternating_bit_protocol, 2, 2, 1),)
            )(WARMUP_SEED),
            summary=_verify_summary,
            check=_check_verify,
            pins="verify-zoo",
            seeded=False,
        ),
        Workload(
            name="refute-sweep",
            unit="refutation",
            run=_refute(HEADER_VICTIMS, CRASH_VICTIMS),
            warmup=lambda: _refute(
                (zoo.alternating_bit_protocol,), (zoo.alternating_bit_protocol,)
            )(WARMUP_SEED),
            summary=_refute_summary,
            check=_check_refute,
            pins="refute-sweep",
            seeded=False,
        ),
    )
}


def job_seed(workload: Workload, seed: int, index: int) -> int:
    return seed + index if workload.seeded else seed


def pin_key(workload: Workload, seed: int) -> str:
    return str(seed) if workload.seeded else "sweep"


def check_job(workload: Workload, job: Job, expected: dict) -> None:
    """Record the job's problems in ``job.problems``, then drop its output."""
    job.problems += workload.check(job)
    pinned = expected.get(workload.pins, {}).get(pin_key(workload, job.seed))
    if pinned is not None:
        summary = json.loads(json.dumps(workload.summary(job.output)))
        if summary != pinned:
            job.problems.append(f"output differs from expected.json: {summary} != {pinned}")
    job.output = None

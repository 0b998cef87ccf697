"""The repository benchmark.

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Runs one workload (or, without ``--workload``, each workload in its own
process) for ``--seconds`` of measured work, checks every output, prints
each metric by name with its unit, and ends with one JSON line::

    {"correct": true, "attempted": 2200, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics (``units_per_s``,
``setup_s``, ``peak_rss_mb``); ``--trace 1`` reports the per-layer
metrics of a traced pass and writes its spans to
``perfbench/out/trace-<workload>.jsonl``.  The exit code is 0 only when
every output is correct.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
EXPECTED = os.path.join(HERE, "expected.json")

#: A run measures at least this many jobs, so its median has company.
MIN_JOBS = 5
#: ``setup_s`` is the median of this many fresh interpreters.
SETUP_PROBES = 9
#: ``--write-expected`` pins the outputs of the jobs with these seeds.
PINNED_SEEDS = range(64)
#: Time of :func:`calibration_seconds` on the reference machine.  Times
#: are reported in reference seconds: wall seconds divided by how much
#: slower the calibration loop ran next to them than this.
REFERENCE_S = 0.010

_TABLE = {i: i for i in range(4096)}
_KEYS = tuple((i, str(i), (i, i + 1)) for i in range(256))


def calibration_seconds(cpus=()) -> float:
    """Time a fixed loop of interpreter work that uses none of the program.

    Other tenants of a shared machine slow every process on it by up to
    2x for seconds to minutes at a time; the loop, timed next to each
    measurement, tells how fast the machine ran then.  It mixes integer
    arithmetic, hashing and dict probes, and small-object allocation,
    with the collector off so the program's heap cannot change its cost.
    With ``cpus`` it is the mean over those CPUs, pinned to each in turn:
    a pooled workload runs on all of them, and tenants need not slow
    them alike.
    """
    if cpus:
        saved = os.sched_getaffinity(0)
        try:
            times = []
            for cpu in cpus:
                os.sched_setaffinity(0, {cpu})
                times.append(calibration_seconds())
            return sum(times) / len(times)
        finally:
            os.sched_setaffinity(0, saved)
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        x = 0
        for i in range(60_000):
            x = (x * 31 + i) & 0xFFFFFFFF
        for r in range(60):
            for key in _KEYS:
                x += hash(key) & 7
                x += _TABLE[(x + r) & 4095]
        for r in range(40):
            pairs = [(i, (i, r)) for i in range(256)]
            x += len({t: i for i, t in pairs})
        return time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()


def import_program():
    """Put the checkout's ``src`` first on the path and import the
    workloads; exits non-zero when the program's sources are missing."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.exit(f"perfbench: no program sources under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    # The compiled exploration backend caches its build; keep it in the
    # checkout.
    os.environ.setdefault(
        "REPRO_ACCEL_CACHE", os.path.join(ROOT, ".bench_build", "repro-accel")
    )
    import workloads

    return workloads


def run_job(workload, seed, index):
    from workloads import Job, job_seed

    seed = job_seed(workload, seed, index)
    started = time.perf_counter()
    units, output = workload.run(seed)
    return Job(index, seed, units, time.perf_counter() - started, output)


def run_jobs(workload, seed, seconds, expected, min_jobs, max_jobs=None):
    """Jobs ``0, 1, ...`` back to back until they took ``seconds`` and at
    least ``min_jobs`` ran, or until ``max_jobs`` ran.  The calibration
    loop runs between jobs; each job's ``slowdown`` is the mean of the
    loop times on either side over :data:`REFERENCE_S`.  Each job is
    checked after its second loop."""
    from workloads import check_job

    cpus = sorted(os.sched_getaffinity(0)) if workload.parallel else ()
    jobs = []
    loop = calibration_seconds(cpus)
    while max_jobs is None or len(jobs) < max_jobs:
        if len(jobs) >= min_jobs and sum(j.seconds for j in jobs) >= seconds:
            break
        job = run_job(workload, seed, len(jobs))
        after = calibration_seconds(cpus)
        job.slowdown = (loop + after) / 2 / REFERENCE_S
        loop = after
        check_job(workload, job, expected)
        jobs.append(job)
    return jobs


def run_traced(workload, seed, seconds, expected, max_jobs=None):
    """Each job twice, untraced then traced, until they took ``seconds``;
    alternating keeps drift on a shared machine out of the tracing
    overhead.  Returns ``(untraced jobs, traced jobs, tracer)``."""
    from spans import Tracer
    from workloads import check_job

    tracer = Tracer()
    plain, traced = [], []
    while max_jobs is None or len(traced) < max_jobs:
        if traced and sum(j.seconds for j in plain + traced) >= seconds:
            break
        index = len(traced)
        plain.append(run_job(workload, seed, index))
        tracer.job = index
        with tracer:
            traced.append(run_job(workload, seed, index))
        check_job(workload, plain[-1], expected)
        check_job(workload, traced[-1], expected)
    return plain, traced, tracer


def peak_rss_mb(parallel):
    """Peak resident set of this process, plus its largest child when
    the workload forks workers."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if parallel:
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024


def setup_seconds(name, probes=SETUP_PROBES):
    """Median reference time from starting a fresh interpreter until it
    finished the workload's warm-up job (imports and first-call set-up
    included).  The calibration loop runs here before the start and in
    the probe right after its warm-up."""
    times = []
    for _ in range(probes):
        before = calibration_seconds()
        started = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--probe"],
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            text=True,
        ) as probe:
            ready = probe.stdout.readline()
            elapsed = time.perf_counter() - started
            loop = probe.stdout.readline()
            probe.stdout.read()
        if probe.returncode or ready.strip() != "ready":
            raise RuntimeError(f"setup probe for {name} failed")
        times.append(elapsed * 2 * REFERENCE_S / (before + float(loop)))
    return statistics.median(times)


def _failed_units(jobs):
    for job in jobs:
        for problem in job.problems:
            print(f"  job {job.index} (seed {job.seed}): {problem}")
    return sum(job.units for job in jobs if job.problems)


def measure(name, seed, seconds, trace, expected, max_jobs=None, probes=SETUP_PROBES):
    """One benchmark run of workload ``name``; returns the result object."""
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    workload.warmup()
    if not trace:
        jobs = run_jobs(workload, seed, seconds, expected, MIN_JOBS, max_jobs)
        rss = peak_rss_mb(workload.parallel)
        wall = sum(j.units for j in jobs) / sum(j.seconds for j in jobs)
        metrics = {
            "units_per_s": (
                statistics.median(j.units * j.slowdown / j.seconds for j in jobs),
                "1/s",
            ),
            "setup_s": (setup_seconds(name, probes), "s"),
            "peak_rss_mb": (rss, "MiB"),
        }
        checked = jobs
        print(
            f"{name}: {len(jobs)} jobs, {sum(j.units for j in jobs)} "
            f"{workload.unit}s at {wall:.6g}/s wall-clock; machine "
            f"slowdown {statistics.median(j.slowdown for j in jobs):.3f}"
        )
    else:
        from spans import per_layer_units

        plain, traced, tracer = run_traced(workload, seed, seconds, expected, max_jobs)
        traced_s = sum(j.seconds for j in traced)
        values = tracer.metrics(
            traced_s,
            sum(j.units for j in traced),
            sum(j.seconds for j in plain),
        )
        units = per_layer_units()
        metrics = {key: (values[key], units[key]) for key in units}
        checked = plain + traced
        path = os.path.join(OUT, f"trace-{name}.jsonl")
        tracer.write_jsonl(path)
        print_layers(tracer, traced_s)
        print(f"{name}: {len(traced)} jobs traced; spans in {os.path.relpath(path, ROOT)}")
    for key, (value, unit) in metrics.items():
        print(f"  {key:40s} {value:14.6g} {unit}")
    failed = _failed_units(checked)
    return {
        "correct": failed == 0,
        "attempted": sum(job.units for job in checked),
        "failed": failed,
        "metrics": {
            key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()
        },
    }


def print_layers(tracer, wall_s):
    """Calls, self time, share of the traced wall time and span-duration
    percentiles per layer, largest self time first."""
    from spans import nearest_rank

    print(f"{'layer':34s} {'calls':>8s} {'self_s':>9s} {'share':>7s} {'p50_ms':>9s} {'p99_ms':>9s}")
    rows = sorted(tracer.layer_table().items(), key=lambda item: -item[1]["self_s"])
    for name, row in rows:
        if row["calls"]:
            print(
                f"{name:34s} {row['calls']:8d} {row['self_s']:9.3f} "
                f"{row['self_s'] / wall_s:7.1%} "
                f"{1000 * nearest_rank(row['durations'], 50):9.3f} "
                f"{1000 * nearest_rank(row['durations'], 99):9.3f}"
            )


def run_all(args, names):
    """Each workload in its own process; a combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in names:
        command = [
            sys.executable, os.path.abspath(__file__), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        status = status or done.returncode
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            combined["correct"] = False
            status = status or 1
            continue
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = metric
    print(json.dumps(combined))
    return status


def write_expected(workloads, seeds=PINNED_SEEDS):
    """Pin the outputs of the given job seeds in expected.json."""
    pinned = {}
    for workload in workloads.WORKLOADS.values():
        if workload.pins in pinned:
            continue
        keys = seeds if workload.seeded else [0]
        pinned[workload.pins] = {
            workloads.pin_key(workload, seed): workload.summary(workload.run(seed)[1])
            for seed in keys
        }
    with open(EXPECTED, "w", encoding="utf-8") as handle:
        json.dump(pinned, handle, indent=1, sort_keys=True)
        handle.write("\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload; default: all, each in its own process")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument(
        "--write-expected", action="store_true",
        help="re-pin the outputs in expected.json (after an intended change)",
    )
    args = parser.parse_args(argv)
    workloads = import_program()
    if args.write_expected:
        write_expected(workloads)
        return 0
    if args.workload is None:
        return run_all(args, list(workloads.WORKLOADS))
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {', '.join(workloads.WORKLOADS)}")
    if args.probe:
        workloads.WORKLOADS[args.workload].warmup()
        print("ready", flush=True)
        print(calibration_seconds(), flush=True)
        return 0
    with open(EXPECTED, encoding="utf-8") as handle:
        expected = json.load(handle)
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace), expected)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Append this checkout's perfbench results to the checked-in trajectory.

    python3 benchmarks/record_perfbench.py --pr N

Runs ``perfbench/run.py`` over every workload twice, at the seed and
seconds of the benchmark contract: once with ``--trace 0`` for the
end-to-end metrics (``units_per_s``, ``setup_s``, ``peak_rss_mb``) and
once with ``--trace 1`` for the per-layer ``*.share`` values.  If
either run reports ``correct: false`` or ``failed > 0`` it exits 1 and
writes nothing; otherwise it appends one entry to
``bench/BENCH_perfbench.json``.  The entry names the commit, and
``dirty`` says whether tracked files differed from it; the trajectory
file itself does not count.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")
TRAJECTORY = os.path.join(ROOT, "bench", "BENCH_perfbench.json")

#: The seed and seconds of ``BENCHMARK.json``'s runs.
SEED = 11
SECONDS = 10
END_TO_END = ("units_per_s", "setup_s", "peak_rss_mb")


def run_perfbench(trace: int) -> str:
    """Stdout of one ``run.py`` pass over every workload, echoed as it comes."""
    command = [
        sys.executable, RUN, "--seed", str(SEED),
        "--seconds", str(SECONDS), "--trace", str(trace),
    ]
    lines = []
    with subprocess.Popen(
        command, cwd=ROOT, stdout=subprocess.PIPE, text=True
    ) as process:
        for line in process.stdout:
            print(line, end="", flush=True)
            lines.append(line)
    return "".join(lines)


def commit_id():
    """``(short HEAD, dirty)``; dirty ignores untracked files and the
    trajectory itself."""
    def git(*args):
        return subprocess.run(
            ["git", *args], cwd=ROOT, check=True,
            stdout=subprocess.PIPE, text=True,
        ).stdout.strip()

    changed = git(
        "status", "--porcelain", "--untracked-files=no", "--", ".",
        ":!" + os.path.relpath(TRAJECTORY, ROOT),
    )
    return git("rev-parse", "--short", "HEAD"), bool(changed)


def parse_result(stdout: str) -> dict:
    """The result object on the last line of ``run.py``'s stdout."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("perfbench printed no result line")
    return json.loads(lines[-1])


def build_entry(pr, plain, traced, commit, dirty, cpus) -> dict:
    """One trajectory entry from the ``--trace 0`` and ``--trace 1``
    result objects; raises ValueError unless both are correct."""
    for result in (plain, traced):
        if not result["correct"] or result["failed"] > 0:
            raise ValueError(
                f"perfbench run not correct (correct={result['correct']}, "
                f"failed={result['failed']}); nothing recorded"
            )
    workloads = {}
    for key, metric in plain["metrics"].items():
        workload, name = key.split(".", 1)
        if name in END_TO_END:
            workloads.setdefault(workload, {})[name] = metric["value"]
    for key, metric in traced["metrics"].items():
        workload, name = key.split(".", 1)
        if name.endswith(".share") and metric["value"]:
            shares = workloads.setdefault(workload, {}).setdefault("shares", {})
            shares[name] = metric["value"]
    return {
        "pr": pr,
        "commit": commit,
        "dirty": dirty,
        "seed": SEED,
        "seconds": SECONDS,
        "cpus": cpus,
        "workloads": workloads,
    }


def append_entry(entry: dict, path: str) -> None:
    entries = []
    if os.path.exists(path):
        with open(path, encoding="utf-8") as handle:
            entries = json.load(handle)
    entries.append(entry)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(entries, handle, indent=2)
        handle.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pr", type=int, required=True, help="PR number of this entry")
    args = parser.parse_args(argv)
    plain, traced = run_perfbench(0), run_perfbench(1)
    commit, dirty = commit_id()
    try:
        entry = build_entry(
            args.pr, parse_result(plain), parse_result(traced),
            commit, dirty, len(os.sched_getaffinity(0)),
        )
    except ValueError as error:
        print(f"record_perfbench: {error}", file=sys.stderr)
        return 1
    append_entry(entry, TRAJECTORY)
    print(f"appended PR {args.pr} ({commit}{' dirty' if dirty else ''}) "
          f"to {os.path.relpath(TRAJECTORY, ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

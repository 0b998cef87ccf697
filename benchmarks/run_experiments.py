#!/usr/bin/env python3
"""Regenerate every experiment table recorded in EXPERIMENTS.md.

Thin wrapper over :mod:`repro.analysis.report` (also available as
``python -m repro experiments``).  The per-experiment pytest-benchmark
files time the same code; this script prints the *result tables* — who
wins, by how much.

Run:  python benchmarks/run_experiments.py [E1 E2 ...]

Throughput is measured by ``perfbench/run.py``; its results are
recorded by ``benchmarks/record_perfbench.py``.
"""

from __future__ import annotations

import sys

from repro.analysis import run_all, to_text


def main() -> None:
    print(to_text(run_all(only=sys.argv[1:] or None)))


if __name__ == "__main__":
    main()

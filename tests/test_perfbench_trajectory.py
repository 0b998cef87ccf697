"""The perfbench trajectory recorder (``benchmarks/record_perfbench.py``).

Fed canned ``perfbench/run.py`` result lines instead of real runs: an
entry carries every workload's end-to-end metrics and non-zero layer
shares, an incorrect run is refused without touching the file, and
entries accumulate.
"""

from __future__ import annotations

import importlib.util
import json
import os
from pathlib import Path

import pytest

RECORDER = (
    Path(__file__).resolve().parent.parent / "benchmarks" / "record_perfbench.py"
)
WORKLOADS = (
    "fuzz-clean",
    "fuzz-pool2",
    "fuzz-shrink",
    "load-dropflood",
    "verify-zoo",
    "refute-sweep",
)


@pytest.fixture
def recorder():
    spec = importlib.util.spec_from_file_location("record_perfbench", RECORDER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def result_line(metrics, correct=True, failed=0):
    """A ``run.py`` result line over every workload, as its last stdout line."""
    return json.dumps({
        "correct": correct,
        "attempted": 1000,
        "failed": failed,
        "metrics": {
            f"{workload}.{name}": {"value": value, "unit": "x"}
            for workload in WORKLOADS
            for name, value in metrics.items()
        },
    })


PLAIN = "fuzz-clean: 5 jobs\n" + result_line(
    {"units_per_s": 300.5, "setup_s": 0.21, "peak_rss_mb": 34.9}
)
TRACED = "layer table\n" + result_line({
    "session.run.share": 0.6,
    "session.run.calls": 1.0,
    "oracles.check_execution.share": 0.4,
    "shrink.shrink_script.share": 0.0,
    "trace.attributed": 0.998,
})


@pytest.fixture
def run(recorder, tmp_path, monkeypatch):
    """Point the recorder at a scratch trajectory and canned runs;
    returns a function that records one entry and gives the exit code."""
    trajectory = tmp_path / "bench" / "trajectory.json"
    monkeypatch.setattr(recorder, "TRAJECTORY", str(trajectory))
    monkeypatch.setattr(recorder, "commit_id", lambda: ("abc1234", False))

    def record(pr, plain=PLAIN, traced=TRACED):
        outputs = {0: plain, 1: traced}
        monkeypatch.setattr(recorder, "run_perfbench", outputs.__getitem__)
        return recorder.main(["--pr", str(pr)])

    return record


def load(recorder):
    return json.loads(Path(recorder.TRAJECTORY).read_text())


def test_entry_carries_every_workload(recorder, run):
    assert run(16) == 0
    (entry,) = load(recorder)
    assert {key: entry[key] for key in ("pr", "commit", "dirty", "cpus")} == {
        "pr": 16,
        "commit": "abc1234",
        "dirty": False,
        "cpus": len(os.sched_getaffinity(0)),
    }
    # run.py's default seed, and the contract's run length.
    benchmark = json.loads((RECORDER.parent.parent / "BENCHMARK.json").read_text())
    assert (entry["seed"], entry["seconds"]) == (11, benchmark["run_seconds"])
    assert set(entry["workloads"]) == set(WORKLOADS)
    for row in entry["workloads"].values():
        assert row == {
            "units_per_s": 300.5,
            "setup_s": 0.21,
            "peak_rss_mb": 34.9,
            "shares": {
                "session.run.share": 0.6,
                "oracles.check_execution.share": 0.4,
            },
        }


@pytest.mark.parametrize(
    "plain,traced",
    [
        (result_line({"units_per_s": 1.0}, correct=False), TRACED),
        (PLAIN, result_line({"session.run.share": 1.0}, failed=3)),
        (PLAIN, ""),
    ],
    ids=["incorrect", "failed-units", "no-result"],
)
def test_bad_run_is_refused_and_writes_nothing(recorder, run, plain, traced):
    assert run(15) == 0
    before = Path(recorder.TRAJECTORY).read_bytes()
    assert run(16, plain, traced) == 1
    assert Path(recorder.TRAJECTORY).read_bytes() == before


def test_bad_first_run_creates_no_file(recorder, run):
    assert run(16, result_line({}, correct=False), TRACED) == 1
    assert not Path(recorder.TRAJECTORY).exists()


def test_second_entry_appends(recorder, run):
    assert run(15) == 0
    (first,) = load(recorder)
    faster = PLAIN.replace("300.5", "450.0")
    assert run(16, faster) == 0
    entries = load(recorder)
    assert entries[0] == first
    assert [entry["pr"] for entry in entries] == [15, 16]
    assert entries[1]["workloads"]["fuzz-clean"]["units_per_s"] == 450.0

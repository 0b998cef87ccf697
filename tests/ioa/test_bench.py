"""Regression tests for the exploration benchmark's verdict table.

``bench/BENCH_explore.json`` once recorded abp-reorder-2 as
``"ok": false`` with no explanation -- an expected failure (the
alternating-bit protocol is provably broken under depth-2 reordering)
indistinguishable from a real engine regression.  The case table now
carries ``expected_ok`` and the benchmark raises when any verdict
drifts from its expectation.
"""

from __future__ import annotations

import pytest

from repro.ioa.engine.bench import DEFAULT_CASES, run_bench


def test_every_case_declares_its_expected_verdict():
    expectations = {key: expected for key, _, _, _, _, expected in DEFAULT_CASES}
    assert expectations["abp-reorder-2"] is False
    assert all(
        expected for key, expected in expectations.items()
        if key != "abp-reorder-2"
    )


def test_bench_verdicts_match_expectations():
    report = run_bench(repeats=1)
    expectations = {key: expected for key, _, _, _, _, expected in DEFAULT_CASES}
    assert set(report["protocols"]) == set(expectations)
    for key, row in report["protocols"].items():
        assert row["ok"] == row["expected_ok"] == expectations[key]
        if row["expected_ok"]:
            assert row["note"] is None
        else:
            assert "expected failure" in row["note"]


def test_drifted_verdict_raises():
    # Flip abp's expectation: the differential run must refuse to
    # report a verdict that contradicts the case table.
    cases = tuple(
        (key, spec, m, c, d, not expected) if key == "abp" else
        (key, spec, m, c, d, expected)
        for key, spec, m, c, d, expected in DEFAULT_CASES[:1]
    )
    with pytest.raises(AssertionError, match="expected_ok"):
        run_bench(cases=cases, repeats=1)


def test_each_column_times_the_backend_it_names(monkeypatch):
    # explore() sends closed compositions to the compiled core, so an
    # engine column that went through it would time the wrong backend.
    from repro.ioa.engine import bench
    from repro.ioa.engine.accel import LazyStateSet, accel_backend_id

    produced = {}
    timed = bench._time_explore

    def recording(explore_fn, build_system, repeats):
        seconds, result = timed(explore_fn, build_system, repeats)
        produced[explore_fn.__name__] = type(result.states)
        return seconds, result

    monkeypatch.setattr(bench, "_time_explore", recording)
    small = tuple(case for case in DEFAULT_CASES if case[0] == "abp-small")
    run_bench(cases=small, repeats=1)
    expected = {"engine_fn": set, "reference_fn": set}
    if accel_backend_id() is not None:
        expected["accel_fn"] = LazyStateSet
    assert produced == expected

"""Tests for the randomized correctness harness (paper, Section 5.2)."""

from __future__ import annotations

import pytest

from repro.datalink import (
    check_over_lossy_fifo,
    check_over_reordering,
    check_protocol,
)
from repro.protocols import (
    alternating_bit_protocol,
    direct_protocol,
    eager_protocol,
    sliding_window_protocol,
    spontaneous_protocol,
    stenning_protocol,
)
from repro.sim import fifo_system


class TestPositiveControls:
    @pytest.mark.parametrize(
        "factory",
        [
            alternating_bit_protocol,
            lambda: sliding_window_protocol(2),
            lambda: sliding_window_protocol(4),
            stenning_protocol,
        ],
    )
    def test_correct_over_lossy_fifo(self, factory):
        report = check_over_lossy_fifo(
            factory(), loss_rate=0.3, seeds=range(6), messages=8
        )
        assert report.ok, report.failures[:1]

    def test_stenning_correct_over_reordering(self):
        report = check_over_reordering(
            stenning_protocol(), seeds=range(6), messages=8
        )
        assert report.ok

    def test_heavy_loss_still_correct(self):
        report = check_over_lossy_fifo(
            alternating_bit_protocol(),
            loss_rate=0.6,
            seeds=range(4),
            messages=5,
        )
        assert report.ok


class TestNegativeControls:
    def test_direct_protocol_fails_under_loss(self):
        report = check_over_lossy_fifo(
            direct_protocol(), loss_rate=0.4, seeds=range(6), messages=8
        )
        assert not report.ok
        failure = report.failures[0]
        # The failure must be a liveness (DL8) violation.
        assert any(
            f.name == "DL8" for f in failure.verdict.failures
        ) or not failure.quiescent

    def test_abp_fails_over_reordering(self):
        report = check_over_reordering(
            alternating_bit_protocol(), seeds=range(8), messages=10
        )
        assert not report.ok

    def test_sliding_window_fails_over_reordering(self):
        report = check_over_reordering(
            sliding_window_protocol(2), seeds=range(8), messages=10
        )
        assert not report.ok

    def test_spontaneous_protocol_violates_dl5(self):
        system = fifo_system(spontaneous_protocol())
        report = check_protocol(
            system,
            lambda seed: (
                system.channel_tr.initial_state(),
                system.channel_rt.initial_state(),
            ),
            seeds=range(2),
            messages=3,
        )
        assert not report.ok
        assert any(
            f.name == "DL5"
            for failure in report.failures
            for f in failure.verdict.failures
        )

    def test_eager_protocol_duplicates_under_retransmission(self):
        report = check_over_lossy_fifo(
            eager_protocol(), loss_rate=0.3, seeds=range(8), messages=6
        )
        assert not report.ok
        assert any(
            f.name == "DL4"
            for failure in report.failures
            for f in failure.verdict.failures
        )


class TestReportShape:
    def test_report_counts_runs(self):
        report = check_over_lossy_fifo(
            alternating_bit_protocol(), seeds=range(3), messages=3
        )
        assert report.runs == 3
        assert report.protocol_name == "alternating-bit"

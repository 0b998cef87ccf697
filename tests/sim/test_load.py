"""Tests for the multi-session load generator and its percentile math."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.sim import Session, percentile, percentile_summary
from repro.sim.load import (
    LoadConfig,
    SessionOutcome,
    LoadResult,
    _fuzz_config,
    normalized_report,
    run_load,
    run_session_batch,
    with_load_mix,
)


class TestPercentile:
    def test_nearest_rank_exact_small_sample(self):
        values = [10, 20, 30, 40]
        assert percentile(values, 25) == 10
        assert percentile(values, 50) == 20
        assert percentile(values, 75) == 30
        assert percentile(values, 100) == 40

    def test_exact_ranks_on_1_to_100(self):
        values = list(range(1, 101))
        assert percentile(values, 50) == 50
        assert percentile(values, 95) == 95
        assert percentile(values, 99) == 99
        assert percentile(values, 100) == 100

    def test_order_independent(self):
        assert percentile([40, 10, 30, 20], 50) == 20

    def test_empty_sample_reports_zero(self):
        assert percentile([], 50) == 0.0
        assert percentile_summary([]) == {
            "p50": 0.0,
            "p95": 0.0,
            "p99": 0.0,
        }

    def test_single_value_is_every_percentile(self):
        assert percentile([7], 1) == 7
        assert percentile([7], 50) == 7
        assert percentile([7], 99) == 7

    def test_out_of_range_q_rejected(self):
        with pytest.raises(ValueError):
            percentile([1, 2], 0)
        with pytest.raises(ValueError):
            percentile([1, 2], 101)

    def test_summary_keys(self):
        summary = percentile_summary(list(range(1, 101)))
        assert summary == {"p50": 50, "p95": 95, "p99": 99}


class TestDeliverySetsStayLazy:
    """A load session never needs a whole delivery set, so it draws none.

    Nothing on the load path hashes or compares states; if something
    starts to, every session pays for the full horizon again and this
    fails.
    """

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_drop_flood_session_over_nonfifo(self, seed):
        config = _fuzz_config(with_load_mix(LoadConfig(), "drop-flood"))
        session = Session.from_spec("alternating_bit", "nonfifo", seed, config)
        assert session.run().quiescent
        system = session.system
        for channel in (system.channel_tr, system.channel_rt):
            delivery = channel.initial_state().delivery
            assert "prefix" not in vars(delivery)
            assert len(delivery._pending.drawn) < config.horizon // 8


class TestLoadConfig:
    def test_with_load_mix_applies_overrides(self):
        config = with_load_mix(LoadConfig(), "drop-flood")
        assert config.mix == "drop-flood"
        assert config.loss_rate == 0.5

    def test_unknown_mix_rejected(self):
        with pytest.raises(KeyError):
            with_load_mix(LoadConfig(), "nope")


class TestRunLoad:
    def test_unknown_protocol_rejected_eagerly(self):
        with pytest.raises(KeyError):
            run_load("nope", "fifo", 0, LoadConfig(sessions=2))

    def test_sessions_merge_in_index_order(self):
        result = run_load(
            "alternating_bit", "fifo", 3, LoadConfig(sessions=9, messages=2)
        )
        assert [s.index for s in result.sessions] == list(range(9))

    def test_report_counters_and_percentiles(self):
        result = run_load(
            "alternating_bit", "fifo", 3, LoadConfig(sessions=6, messages=2)
        )
        report = result.report()
        assert report.status == "ok"
        assert report.counters["load.sessions"] == 6
        assert report.counters["load.messages_sent"] == 12
        latency = report.details["latency"]
        for key in ("p50", "p95", "p99", "mean", "max"):
            assert key in latency
        ratio = report.details["delivery_ratio"]
        for key in ("p50", "p95", "p99", "min", "mean"):
            assert key in ratio

    @pytest.mark.parametrize("seed", [0, 7, 23])
    def test_workers_identity_across_seeds(self, seed):
        config = LoadConfig(sessions=10, messages=2)
        serial = run_load(
            "alternating_bit", "nonfifo", seed, config, workers=1
        )
        pooled = run_load(
            "alternating_bit", "nonfifo", seed, config, workers=2
        )
        assert normalized_report(
            serial.report().to_dict()
        ) == normalized_report(pooled.report().to_dict())

    def test_session_failure_is_contained(self, monkeypatch):
        from repro.sim import load as load_module

        original = load_module.Session.from_spec
        calls = {"n": 0}

        def flaky(cls, *args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 2:
                raise RuntimeError("injected session failure")
            return original(*args, **kwargs)

        monkeypatch.setattr(
            load_module.Session, "from_spec", classmethod(flaky)
        )
        result = run_load(
            "alternating_bit", "fifo", 3, LoadConfig(sessions=4, messages=2)
        )
        assert result.failed_sessions == 1
        assert "injected session failure" in result.sessions[1].error
        assert [s.index for s in result.sessions] == [0, 1, 2, 3]
        assert result.report().status == "ok"

    def test_all_sessions_failing_is_an_error(self):
        outcome = SessionOutcome(index=0, error="boom")
        result = LoadResult(
            protocol="alternating_bit",
            channel="fifo",
            seed=0,
            config=LoadConfig(sessions=1),
            sessions=[outcome],
        )
        assert result.report().status == "error"

    def test_empty_run_reports_zero_percentiles(self):
        result = LoadResult(
            protocol="alternating_bit",
            channel="fifo",
            seed=0,
            config=LoadConfig(sessions=0),
            sessions=[],
        )
        report = result.report()
        assert report.status == "ok"
        assert report.details["latency"]["p99"] == 0.0
        assert report.details["delivery_ratio"]["p50"] == 0.0

    def test_batch_budget_times_out_remaining_sessions(self):
        from repro.conformance.harness import SubSeeds
        import random

        master = random.Random(0)
        schedule = [SubSeeds.derive(master) for _ in range(3)]
        ticks = iter([0.0, 0.0, 100.0, 100.0, 100.0, 100.0])
        batch = run_session_batch(
            "alternating_bit",
            "fifo",
            0,
            schedule,
            LoadConfig(sessions=3, messages=1),
            run_timeout=1.0,
            clock=lambda: next(ticks),
        )
        assert batch.outcomes[0].error is None
        assert all(o.timed_out for o in batch.outcomes[1:])


class TestLoadCli:
    def test_load_json_envelope(self, capsys):
        exit_code = main(
            [
                "load",
                "--sessions",
                "8",
                "--steps",
                "2",
                "--seed",
                "5",
                "--json",
            ]
        )
        assert exit_code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["command"] == "load"
        assert report["counters"]["load.sessions"] == 8
        assert "p99" in report["details"]["latency"]
        assert "shards" in report["details"]["pool"]

    def test_load_text_rendering(self, capsys):
        exit_code = main(
            ["load", "--sessions", "6", "--steps", "2", "--fault-mix", "clean"]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "6 sessions x 2 messages" in out
        assert "latency (steps)" in out
        assert "delivery ratio" in out

    def test_load_trace_counters_merged(self, capsys, tmp_path):
        trace = tmp_path / "load.jsonl"
        exit_code = main(
            [
                "load",
                "--sessions",
                "4",
                "--steps",
                "2",
                "--trace",
                str(trace),
                "--json",
            ]
        )
        assert exit_code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["details"]["artifacts"]["trace"] == str(trace)
        assert report["counters"]["load.sessions"] == 4
        assert trace.exists()

    def test_load_unknown_mix_exits_cleanly(self, capsys):
        with pytest.raises(SystemExit):
            main(["load", "--sessions", "2", "--fault-mix", "nope"])

"""Tests for the multi-session load generator and its percentile math."""

from __future__ import annotations

import json
import math
import os
import random
import threading

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
    run_session,
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
        for channel_state in session.system.initial_state()[2:]:
            delivery = channel_state.delivery
            assert "prefix" not in vars(delivery)
            assert len(delivery._pending.drawn) < config.horizon // 8


class TestLoadConfig:
    def test_with_load_mix_applies_overrides(self):
        config = with_load_mix(LoadConfig(), "drop-flood")
        assert config.mix == "drop-flood"
        assert _fuzz_config(config).loss_rate == 0.5

    def test_unknown_mix_rejected(self):
        with pytest.raises(KeyError):
            with_load_mix(LoadConfig(), "nope")


class TestRunLoad:
    def test_unknown_protocol_rejected_eagerly(self):
        with pytest.raises(KeyError):
            run_load("nope", "fifo", 0, LoadConfig(sessions=2))

    def test_negative_run_timeout_rejected(self):
        with pytest.raises(ValueError, match="run_timeout"):
            run_load(
                "alternating_bit", "fifo", 0, LoadConfig(sessions=2),
                run_timeout=-1,
            )

    @pytest.mark.parametrize("knob", ["workers"])
    def test_pool_size_below_one_rejected(self, knob):
        with pytest.raises(ValueError, match=knob):
            run_load(
                "alternating_bit", "fifo", 0, LoadConfig(sessions=4),
                **{knob: 0},
            )

    @pytest.mark.parametrize("workers", [1, 2])
    def test_shards_are_auto_sized(self, workers):
        from repro.conformance.pool import auto_batch_size

        sessions = 9
        result = run_load(
            "alternating_bit",
            "fifo",
            3,
            LoadConfig(sessions=sessions, messages=2),
            workers=workers,
        )
        pool = result.report().details["pool"]
        size = auto_batch_size(sessions, workers)
        assert pool["batch_size"] == size
        assert pool["batches"] == math.ceil(sessions / size)
        assert len(pool["shards"]) == pool["batches"]

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
            pool={"batch_size": 1},
        )
        assert result.report().status == "error"

    def test_empty_run_reports_zero_percentiles(self):
        result = LoadResult(
            protocol="alternating_bit",
            channel="fifo",
            seed=0,
            config=LoadConfig(sessions=0),
            sessions=[],
            pool={"batch_size": 1},
        )
        report = result.report()
        assert report.status == "ok"
        assert report.details["latency"]["p99"] == 0.0
        assert report.details["delivery_ratio"]["p50"] == 0.0

    def test_batch_budget_times_out_remaining_sessions(self):
        from repro.conformance.harness import SubSeeds
        from repro.conformance.pool import run_batch

        master = random.Random(0)
        schedule = [SubSeeds.derive(master) for _ in range(3)]
        config = _fuzz_config(LoadConfig(sessions=3, messages=1))

        def body(index, subseeds, resolved):
            return run_session(
                "alternating_bit", "fifo", index, subseeds, config
            )

        ticks = iter([0.0, 0.0, 100.0, 100.0, 100.0, 100.0])
        outcomes = run_batch(
            body,
            SessionOutcome,
            0,
            schedule,
            run_timeout=1.0,
            clock=lambda: next(ticks),
        )
        assert outcomes[0].error is None
        assert all(o.timed_out for o in outcomes[1:])

    def test_timeout_guard_unavailable_off_main_thread_is_surfaced(self):
        """SIGALRM handlers only install on the main thread: a load run
        driven from a worker thread still executes every session --
        unguarded -- and reports the degradation."""
        from repro.obs import MemorySink, tracing

        config = LoadConfig(sessions=2, messages=2)
        holder = {}

        def drive():
            sink = MemorySink()
            with tracing(sink) as tracer:
                result = run_load(
                    "alternating_bit", "fifo", 3, config, run_timeout=30.0
                )
                counters = tracer.snapshot_counters()
            holder["result"] = result
            holder["counters"] = counters

        thread = threading.Thread(target=drive)
        thread.start()
        thread.join()
        result = holder["result"]
        assert result.failed_sessions == 0
        note = result.pool["timeout_unavailable"]
        assert note["runs"] == 2
        assert "main thread" in note["reason"]
        assert holder["counters"]["load.timeout_unavailable"] == 2
        assert result.report().details["pool"]["timeout_unavailable"] == note

        # On the main thread the guard arms and nothing is reported.
        guarded = run_load(
            "alternating_bit", "fifo", 3, config, run_timeout=30.0
        )
        assert "timeout_unavailable" not in guarded.pool

    def test_worker_crash_mid_shard_fails_only_that_shard(self, monkeypatch):
        """A hard worker death fails exactly the crashing shard's
        sessions; the sibling shards equal the serial run."""
        from repro.conformance import SubSeeds, pool
        from repro.conformance.registry import FUZZ_CHANNELS

        seed, sessions, batch_size = 9, 8, 3
        master = random.Random(seed)
        schedule = [SubSeeds.derive(master) for _ in range(sessions)]
        # Session 4 sits in the middle shard (sessions 3..5).
        crash_tr = schedule[4].channel_tr
        base = FUZZ_CHANNELS["perfect"]

        def crashing_start(chan_seed, loss, window, horizon, capacity):
            if pool._WORKER and chan_seed == crash_tr:
                os._exit(43)
            return base.start(chan_seed, loss, window, horizon, capacity)

        config = LoadConfig(sessions=sessions, messages=2)
        serial = run_load("alternating_bit", "perfect", seed, config)
        # Batches are always auto-sized; pin the layout through it.
        monkeypatch.setattr(
            pool, "auto_batch_size", lambda runs, workers: batch_size
        )
        FUZZ_CHANNELS["_crash_shard"] = base._replace(start=crashing_start)
        try:
            pooled = run_load(
                "alternating_bit", "_crash_shard", seed, config, workers=2
            )
        finally:
            del FUZZ_CHANNELS["_crash_shard"]

        assert pooled.pool["mode"] == "fork"
        assert [s.index for s in pooled.sessions] == list(range(sessions))
        failed = [s.index for s in pooled.sessions if s.error is not None]
        assert failed == [3, 4, 5]
        assert all("worker crashed" in pooled.sessions[i].error for i in failed)
        assert pooled.pool["failures"] == 3
        assert pooled.report().counters["load.failed_sessions"] == 3
        for index in (0, 1, 2, 6, 7):
            ours, theirs = pooled.sessions[index], serial.sessions[index]
            assert ours.error is None
            for name in (
                "subseeds",
                "steps",
                "quiescent",
                "sent",
                "delivered",
                "duplicates",
                "dropped",
                "latencies",
            ):
                assert getattr(ours, name) == getattr(theirs, name)


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

    def test_load_off_main_thread_reports_unarmed_timeout(self, capsys):
        holder = {}

        def drive():
            holder["exit"] = main(
                [
                    "load",
                    "--sessions",
                    "3",
                    "--steps",
                    "2",
                    "--run-timeout",
                    "30",
                    "--json",
                ]
            )

        thread = threading.Thread(target=drive)
        thread.start()
        thread.join()
        assert holder["exit"] == 0
        report = json.loads(capsys.readouterr().out)
        note = report["details"]["pool"]["timeout_unavailable"]
        assert note["runs"] == 3
        assert "main thread" in note["reason"]

    @pytest.mark.parametrize(
        "flag,value",
        [
            ("--sessions", "-3"),
            ("--steps", "-1"),
            ("--workers", "0"),
            ("--run-timeout", "-1"),
            ("--run-timeout", "0"),
        ],
    )
    def test_invalid_count_and_timeout_flags_rejected(
        self, capsys, flag, value
    ):
        with pytest.raises(SystemExit) as exited:
            main(["load", "--sessions", "2", flag, value])
        assert exited.value.code == 2
        assert f"argument {flag}" in capsys.readouterr().err

    def test_batch_size_flag_is_gone(self, capsys):
        # Shards are sized from the session and worker counts alone.
        with pytest.raises(SystemExit) as exited:
            main(["load", "--sessions", "2", "--batch-size", "4"])
        assert exited.value.code == 2
        assert "--batch-size" in capsys.readouterr().err

    def test_load_unknown_mix_exits_cleanly(self, capsys):
        with pytest.raises(SystemExit):
            main(["load", "--sessions", "2", "--fault-mix", "nope"])

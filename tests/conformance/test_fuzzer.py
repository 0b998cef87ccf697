"""Tests for the campaign driver: coverage, corpus, reports, obs wiring."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.conformance import (
    CorpusEntry,
    FuzzConfig,
    append_entries,
    fuzz_campaign,
    load_corpus,
)
from repro.obs import JSONLSink, MemorySink, tracing


class TestCampaign:
    def test_naive_campaign_finds_and_shrinks(self):
        campaign = fuzz_campaign("naive", "nonfifo", 7, FuzzConfig(runs=5))
        assert campaign.violations
        for violation in campaign.violations:
            assert violation.violation.layer == "dl"
            assert violation.shrunk_length <= 12
            assert violation.repro["format"] == "repro-fuzz/1"
        # One packaged repro per *distinct* oracle per run.
        per_run = {}
        for violation in campaign.violations:
            oracles = per_run.setdefault(violation.run_index, set())
            assert violation.violation.oracle not in oracles
            oracles.add(violation.violation.oracle)
        for record in campaign.runs:
            packaged = per_run.get(record.index, set())
            assert packaged == {v.oracle for v in record.violations}
        # The strawman trips several oracles in a single run; every one
        # must be packaged (found[0] alone used to survive), and the
        # violations counter must agree with the RunRecord contents.
        assert any(len(oracles) >= 2 for oracles in per_run.values())
        assert campaign.report().counters["fuzz.violations"] == sum(
            len({v.oracle for v in record.violations})
            for record in campaign.runs
        )

    def test_abp_over_fifo_is_clean(self):
        campaign = fuzz_campaign(
            "alternating_bit", "fifo", 7, FuzzConfig(runs=5)
        )
        assert campaign.violations == []
        assert not campaign.found_violation
        assert all(run.quiescent for run in campaign.runs)

    def test_campaigns_are_deterministic(self):
        config = FuzzConfig(runs=4)
        a = fuzz_campaign("naive", "nonfifo", 3, config)
        b = fuzz_campaign("naive", "nonfifo", 3, config)
        assert [v.repro for v in a.violations] == [
            v.repro for v in b.violations
        ]
        assert [r.subseeds for r in a.runs] == [r.subseeds for r in b.runs]
        assert a.states_interned == b.states_interned

    def test_different_seeds_differ(self):
        config = FuzzConfig(runs=2)
        a = fuzz_campaign("stenning", "nonfifo", 1, config)
        b = fuzz_campaign("stenning", "nonfifo", 2, config)
        assert [r.subseeds for r in a.runs] != [r.subseeds for r in b.runs]

    def test_intern_table_dedups_across_runs(self):
        # Coverage counts distinct states across the whole campaign, so
        # the sum of per-run new states equals the table size.
        campaign = fuzz_campaign(
            "alternating_bit", "fifo", 5, FuzzConfig(runs=4)
        )
        assert campaign.states_interned == sum(
            run.new_states for run in campaign.runs
        )
        # Later runs revisit early states: strictly fewer new ones than
        # steps would suggest on at least one run.
        assert any(
            run.new_states < run.steps + 1 for run in campaign.runs[1:]
        )

    def test_report_envelope(self):
        campaign = fuzz_campaign("naive", "nonfifo", 7, FuzzConfig(runs=2))
        report = campaign.report()
        assert report.command == "fuzz"
        assert report.status == "violation"
        assert report.counters["fuzz.runs"] == 2
        assert report.counters["fuzz.violations"] == len(campaign.violations)
        envelope = report.to_dict()
        assert set(envelope) == {
            "command",
            "status",
            "counters",
            "duration_s",
            "details",
        }

    def test_clean_report_is_ok(self):
        campaign = fuzz_campaign(
            "alternating_bit", "fifo", 7, FuzzConfig(runs=2)
        )
        assert campaign.report().status == "ok"
        assert campaign.report().exit_code == 0

    def test_campaign_whose_every_run_failed_is_an_error(self):
        campaign = fuzz_campaign(
            "alternating_bit", "fifo", 7, FuzzConfig(runs=2)
        )
        first, second = campaign.runs
        campaign.runs = [replace(first, error="RuntimeError: injected"), second]
        assert campaign.report().status == "ok"
        campaign.runs = [replace(run, error="timed out") for run in campaign.runs]
        assert campaign.report().status == "error"
        assert campaign.report().exit_code == 2

    def test_negative_run_timeout_rejected(self):
        with pytest.raises(ValueError, match="run_timeout"):
            fuzz_campaign(
                "alternating_bit", "fifo", 7, FuzzConfig(runs=2), run_timeout=-1
            )

    def test_obs_spans_and_counters_emitted(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with tracing(JSONLSink(str(path))):
            fuzz_campaign("naive", "nonfifo", 7, FuzzConfig(runs=2))
        from repro.obs import read_events

        events = read_events(str(path))
        span_names = {e.name for e in events if e.kind == "span_start"}
        counter_names = {e.name for e in events if e.kind == "counter"}
        assert "fuzz.run" in span_names
        assert "fuzz.shrink" in span_names
        assert "fuzz.oracle_checks" in counter_names
        assert "fuzz.shrink_executions" in counter_names
        assert "fuzz.shrink_resumed_steps" in counter_names

    def test_shrink_counters_match_the_search(self):
        # Every attempt is one execution, resumed or not; a resumed one
        # takes some of its steps from a checkpoint.
        with tracing(MemorySink()) as tracer:
            campaign = fuzz_campaign("naive", "nonfifo", 7, FuzzConfig(runs=4))
            counters = tracer.snapshot_counters()
        attempts = sum(v.shrink.attempts for v in campaign.violations)
        assert attempts > 0
        assert counters["fuzz.shrink_executions"] == attempts
        assert 0 < counters["fuzz.shrink_resumed_steps"] < counters["sim.steps"]

    def test_untraced_shrink_counts_nothing(self, monkeypatch):
        from repro.obs import current_tracer

        tracer = current_tracer()
        assert not tracer.enabled

        count = type(tracer).count

        def refuse(self, name, *args, **kwargs):
            assert not name.startswith("fuzz.shrink"), name
            return count(self, name, *args, **kwargs)

        monkeypatch.setattr(type(tracer), "count", refuse)
        campaign = fuzz_campaign("naive", "nonfifo", 7, FuzzConfig(runs=2))
        assert any(v.shrink.attempts for v in campaign.violations)

    def test_reported_oracle_checks_match_traced_counter(self):
        # The default mix injects fail events, on which the validity
        # oracle stands down; the report must count exactly the oracle
        # applications the traced counter saw.  The naive campaign
        # convicts and shrinks: its shrink candidates' checks are
        # counted by fuzz.shrink_executions, not here.
        for protocol, channel, seed, runs in (
            ("alternating_bit", "fifo", 3, 30),
            ("naive", "nonfifo", 5, 20),
        ):
            with tracing(MemorySink()) as tracer:
                campaign = fuzz_campaign(
                    protocol, channel, seed, FuzzConfig(runs=runs)
                )
                traced = tracer.snapshot_counters()["fuzz.oracle_checks"]
            reported = campaign.report().counters["fuzz.oracle_checks"]
            assert reported == campaign.oracle_checks == traced, protocol


class TestCorpus:
    def test_violating_runs_enter_corpus(self):
        campaign = fuzz_campaign("naive", "nonfifo", 7, FuzzConfig(runs=3))
        reasons = {entry.reason for entry in campaign.corpus}
        assert "violation" in reasons

    def test_coverage_runs_enter_corpus(self):
        campaign = fuzz_campaign(
            "stenning", "nonfifo", 3, FuzzConfig(runs=3)
        )
        assert any(e.reason == "coverage" for e in campaign.corpus)

    def test_corpus_roundtrip(self, tmp_path):
        campaign = fuzz_campaign("naive", "nonfifo", 7, FuzzConfig(runs=3))
        path = tmp_path / "corpus.jsonl"
        append_entries(path, campaign.corpus)
        loaded = load_corpus(path)
        assert loaded == campaign.corpus
        # Append accumulates.
        append_entries(path, campaign.corpus[:1])
        assert len(load_corpus(path)) == len(campaign.corpus) + 1

    def test_missing_corpus_is_empty(self, tmp_path):
        assert load_corpus(tmp_path / "absent.jsonl") == []

    def test_corpus_seeds_replay_first(self):
        donor = fuzz_campaign("naive", "nonfifo", 7, FuzzConfig(runs=2))
        entry: CorpusEntry = donor.corpus[0]
        campaign = fuzz_campaign(
            "naive",
            "nonfifo",
            99,
            FuzzConfig(runs=1),
            replay_subseeds=[entry.subseeds],
        )
        assert campaign.runs[0].subseeds == entry.subseeds
        assert len(campaign.runs) == 2  # corpus run + one fresh run


class TestDeepOracles:
    def test_deep_oracles_report_independence_and_k(self):
        campaign = fuzz_campaign(
            "alternating_bit",
            "fifo",
            1,
            FuzzConfig(runs=1, deep_oracles=True),
        )
        assert campaign.deep["message_independent"] is True
        assert campaign.deep["k_bound"] >= 1

    def test_peeking_protocol_flagged(self):
        # message_peeking branches on message identity; the deep oracle
        # must flag it and the campaign must count as a violation.
        from repro.conformance.registry import FUZZ_PROTOCOLS
        from repro.protocols import message_peeking_protocol

        FUZZ_PROTOCOLS["_peeking_test"] = lambda: message_peeking_protocol()
        try:
            campaign = fuzz_campaign(
                "_peeking_test",
                "perfect",
                1,
                FuzzConfig(runs=1, deep_oracles=True),
            )
            assert campaign.deep["message_independent"] is False
            assert campaign.found_violation
            assert campaign.report().status == "violation"
        finally:
            del FUZZ_PROTOCOLS["_peeking_test"]

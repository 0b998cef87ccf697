"""CLI acceptance tests for ``repro fuzz``, including bit-determinism.

The determinism test is the satellite fix for ``--seed``: two runs of
the same command must produce identical JSONL event streams modulo
timestamps.  Before the RNG threading fix, ``sim/faults.py`` drew from
the global RNG, so two same-seed runs could diverge.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import main


def read_jsonl(path):
    return [
        json.loads(line)
        for line in Path(path).read_text().splitlines()
        if line.strip()
    ]


def normalize(record):
    """Drop wall-clock data: timestamps and measured durations."""
    record = dict(record)
    record.pop("at", None)
    if record.get("kind") in ("span_end", "manifest"):
        record.pop("value", None)
    if record.get("kind") == "manifest":
        fields = dict(record.get("fields", {}))
        for key in ("wall_s", "cpu_s", "started_at", "finished_at"):
            fields.pop(key, None)
        record["fields"] = fields
    return record


class TestFuzzCommand:
    def test_naive_nonfifo_seed7_finds_and_shrinks(self, tmp_path, capsys):
        out = tmp_path / "repros"
        code = main(
            [
                "fuzz",
                "--protocol",
                "naive",
                "--channel",
                "nonfifo",
                "--seed",
                "7",
                "--runs",
                "5",
                "--out",
                str(out),
                "--json",
            ]
        )
        assert code == 1
        envelope = json.loads(capsys.readouterr().out)
        assert envelope["status"] == "violation"
        violations = envelope["details"]["violations"]
        assert violations
        assert all(v["layer"] == "dl" for v in violations)
        assert all(v["shrunk_length"] <= 12 for v in violations)
        repro_files = sorted(out.glob("*.json"))
        assert repro_files

    def test_replay_reproduces(self, tmp_path, capsys):
        out = tmp_path / "repros"
        main(
            [
                "fuzz",
                "--protocol",
                "naive",
                "--channel",
                "nonfifo",
                "--seed",
                "7",
                "--runs",
                "2",
                "--out",
                str(out),
            ]
        )
        capsys.readouterr()
        repro_file = sorted(out.glob("*.json"))[0]
        code = main(["fuzz", "--replay", str(repro_file), "--json"])
        envelope = json.loads(capsys.readouterr().out)
        assert code == 1
        assert envelope["details"]["reproduced"] is True

    def test_abp_over_fifo_reports_zero_violations(self, tmp_path, capsys):
        code = main(
            [
                "fuzz",
                "--protocol",
                "alternating_bit",
                "--channel",
                "fifo",
                "--seed",
                "7",
                "--runs",
                "5",
                "--out",
                str(tmp_path / "repros"),
                "--json",
            ]
        )
        assert code == 0
        envelope = json.loads(capsys.readouterr().out)
        assert envelope["status"] == "ok"
        assert envelope["details"]["violations"] == []

    def test_seed_makes_runs_bit_identical(self, tmp_path, capsys):
        """Two same-seed runs emit identical event streams mod timestamps."""
        streams = []
        for name in ("a.jsonl", "b.jsonl"):
            trace = tmp_path / name
            main(
                [
                    "fuzz",
                    "--protocol",
                    "naive",
                    "--channel",
                    "nonfifo",
                    "--seed",
                    "7",
                    "--runs",
                    "3",
                    "--out",
                    str(tmp_path / "repros"),
                    "--trace",
                    str(trace),
                ]
            )
            capsys.readouterr()
            streams.append([normalize(r) for r in read_jsonl(trace)])
        assert streams[0] == streams[1]

    def test_different_seeds_diverge(self, tmp_path, capsys):
        streams = []
        for seed in ("7", "8"):
            trace = tmp_path / f"s{seed}.jsonl"
            main(
                [
                    "fuzz",
                    "--protocol",
                    "naive",
                    "--channel",
                    "nonfifo",
                    "--seed",
                    seed,
                    "--runs",
                    "3",
                    "--out",
                    str(tmp_path / "repros"),
                    "--trace",
                    str(trace),
                ]
            )
            capsys.readouterr()
            streams.append([normalize(r) for r in read_jsonl(trace)])
        assert streams[0] != streams[1]

    def test_corpus_written(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.jsonl"
        main(
            [
                "fuzz",
                "--protocol",
                "stenning",
                "--channel",
                "nonfifo",
                "--seed",
                "3",
                "--runs",
                "3",
                "--out",
                str(tmp_path / "repros"),
                "--corpus",
                str(corpus),
            ]
        )
        capsys.readouterr()
        from repro.conformance import load_corpus

        assert load_corpus(corpus)

    def test_corpus_entries_are_replayed_first(self, tmp_path, capsys):
        # Regression: the CLI used to append corpus entries but never
        # pass them back as replay_subseeds, so the documented
        # "replayed first by later campaigns" contract silently never
        # happened.
        corpus = tmp_path / "corpus.jsonl"
        base = [
            "fuzz",
            "--protocol",
            "naive",
            "--channel",
            "nonfifo",
            "--seed",
            "7",
            "--runs",
            "3",
            "--no-shrink",
            "--corpus",
            str(corpus),
            "--json",
        ]
        main(base + ["--out", str(tmp_path / "repros1")])
        first = json.loads(capsys.readouterr().out)
        assert first["details"]["corpus_replayed"] == 0
        from repro.conformance import load_corpus

        entries = load_corpus(corpus)
        assert entries
        unique_subseeds = []
        for entry in entries:
            if entry.subseeds not in unique_subseeds:
                unique_subseeds.append(entry.subseeds)

        main(base + ["--out", str(tmp_path / "repros2")])
        second = json.loads(capsys.readouterr().out)
        assert second["details"]["corpus_replayed"] == len(unique_subseeds)
        assert second["counters"]["fuzz.runs"] == 3 + len(unique_subseeds)
        # Replayed entries must not re-append themselves.
        assert len(load_corpus(corpus)) == len(entries)

    def test_corpus_replay_skips_other_combinations(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.jsonl"
        main(
            [
                "fuzz",
                "--protocol",
                "naive",
                "--channel",
                "nonfifo",
                "--seed",
                "7",
                "--runs",
                "3",
                "--no-shrink",
                "--corpus",
                str(corpus),
                "--out",
                str(tmp_path / "repros1"),
            ]
        )
        capsys.readouterr()
        main(
            [
                "fuzz",
                "--protocol",
                "stenning",
                "--channel",
                "nonfifo",
                "--seed",
                "7",
                "--runs",
                "2",
                "--no-shrink",
                "--corpus",
                str(corpus),
                "--out",
                str(tmp_path / "repros2"),
                "--json",
            ]
        )
        report = json.loads(capsys.readouterr().out)
        assert report["details"]["corpus_replayed"] == 0
        assert report["counters"]["fuzz.runs"] == 2

    def test_workers_flag_matches_serial_output(self, tmp_path, capsys):
        reports = {}
        repro_listings = {}
        for workers in ("1", "2"):
            out = tmp_path / f"repros-w{workers}"
            main(
                [
                    "fuzz",
                    "--protocol",
                    "naive",
                    "--channel",
                    "nonfifo",
                    "--seed",
                    "7",
                    "--runs",
                    "4",
                    "--workers",
                    workers,
                    "--out",
                    str(out),
                    "--json",
                ]
            )
            report = json.loads(capsys.readouterr().out)
            report["duration_s"] = None
            report["details"].pop("pool", None)
            report["details"].pop("artifacts", None)
            reports[workers] = report
            repro_listings[workers] = {
                path.name: path.read_text()
                for path in sorted(out.glob("*.json"))
            }
        assert reports["1"] == reports["2"]
        assert repro_listings["1"] == repro_listings["2"]

    def test_list_oracles(self, capsys):
        assert main(["fuzz", "--list-oracles"]) == 0
        out = capsys.readouterr().out
        assert "DL4" in out and "PL5" in out

    def test_unknown_protocol_exits(self, tmp_path):
        with pytest.raises(SystemExit):
            main(
                [
                    "fuzz",
                    "--protocol",
                    "nope",
                    "--out",
                    str(tmp_path / "repros"),
                ]
            )

    def test_missing_protocol_exits(self):
        with pytest.raises(SystemExit):
            main(["fuzz"])

    @pytest.mark.parametrize(
        "flag,value",
        [
            ("--run-timeout", "-1"),
            ("--run-timeout", "0"),
            ("--runs", "-4"),
            ("--messages", "-1"),
            ("--workers", "0"),
        ],
    )
    def test_invalid_count_and_timeout_flags_rejected(
        self, tmp_path, capsys, flag, value
    ):
        with pytest.raises(SystemExit) as exited:
            main(
                [
                    "fuzz",
                    "--protocol",
                    "alternating_bit",
                    "--channel",
                    "fifo",
                    "--out",
                    str(tmp_path / "repros"),
                    flag,
                    value,
                ]
            )
        assert exited.value.code == 2
        assert f"argument {flag}" in capsys.readouterr().err

    def test_zero_runs_is_valid(self, tmp_path, capsys):
        code = main(
            [
                "fuzz",
                "--protocol",
                "alternating_bit",
                "--channel",
                "fifo",
                "--runs",
                "0",
                "--out",
                str(tmp_path / "repros"),
            ]
        )
        assert code == 0
        assert "0 runs" in capsys.readouterr().out

    def test_campaign_whose_every_run_failed_is_an_error(
        self, tmp_path, capsys
    ):
        from repro.conformance.registry import FUZZ_PROTOCOLS
        from repro.datalink.protocol import DataLinkProtocol
        from repro.protocols.naive import DirectReceiver, DirectTransmitter

        class BrokenTransmitter(DirectTransmitter):
            def initial_core(self):
                raise RuntimeError("injected failure")

        FUZZ_PROTOCOLS["_broken_test"] = lambda: DataLinkProtocol(
            name="broken",
            transmitter_factory=BrokenTransmitter,
            receiver_factory=DirectReceiver,
            description="every run raises",
        )
        try:
            code = main(
                [
                    "fuzz",
                    "--protocol",
                    "_broken_test",
                    "--channel",
                    "perfect",
                    "--runs",
                    "3",
                    "--out",
                    str(tmp_path / "repros"),
                ]
            )
        finally:
            del FUZZ_PROTOCOLS["_broken_test"]
        out = capsys.readouterr().out
        assert code == 2
        assert "3 run(s) failed" in out
        assert "all oracles held" not in out

    def test_bad_replay_file_errors(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        code = main(["fuzz", "--replay", str(bad)])
        capsys.readouterr()
        assert code == 2

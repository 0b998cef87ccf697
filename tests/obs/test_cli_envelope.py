"""Every CLI subcommand speaks the same --json envelope; --trace
produces a replayable JSONL stream closed by a manifest."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.ioa.engine.accel import accel_backend_id
from repro.obs import MANIFEST, RunManifest, read_events

from .test_report import assert_envelope


def run_json(capsys, argv):
    code = main(argv + ["--json"])
    return code, json.loads(capsys.readouterr().out)


class TestEnvelope:
    @pytest.mark.parametrize(
        "argv, command",
        [
            (["check", "abp"], "check"),
            (
                ["simulate", "abp", "--messages", "2", "--loss", "0.1"],
                "simulate",
            ),
            (
                ["verify", "abp", "--messages", "1", "--capacity", "1"],
                "verify",
            ),
            (["refute-crash", "abp"], "refute-crash"),
            (["refute-headers", "mod-stenning:2"], "refute-headers"),
            (["lint", "abp"], "lint"),
        ],
    )
    def test_six_subcommands_share_the_envelope(
        self, capsys, argv, command
    ):
        code, payload = run_json(capsys, argv)
        assert_envelope(payload, command)
        assert code == 0
        assert payload["status"] == "ok"

    def test_violation_status_and_exit(self, capsys):
        code, payload = run_json(
            capsys, ["verify", "abp", "--reorder-depth", "2"]
        )
        assert code == 1
        assert payload["status"] == "violation"
        assert payload["details"]["counterexample"]

    def test_engine_error_status_and_exit(self, capsys):
        code, payload = run_json(capsys, ["refute-crash", "baratz-segall"])
        assert code == 2
        assert_envelope(payload, "refute-crash")
        assert payload["status"] == "error"
        assert "error" in payload["details"]

    def test_auxiliary_commands_speak_it_too(self, capsys):
        for argv, command in [
            (["list"], "list"),
            (["growth", "stenning", "--checkpoints", "1", "2"], "growth"),
            (["lint", "--list-codes"], "lint"),
        ]:
            code, payload = run_json(capsys, argv)
            assert_envelope(payload, command)
            assert code == 0


class TestTraceFlag:
    def test_simulate_trace_round_trip(self, capsys, tmp_path):
        path = str(tmp_path / "sim.jsonl")
        code, payload = run_json(
            capsys,
            [
                "simulate",
                "abp",
                "--messages",
                "3",
                "--seed",
                "4",
                "--trace",
                path,
            ],
        )
        assert code == 0
        assert payload["details"]["artifacts"]["trace"] == path
        events = read_events(path)
        assert events  # replayable stream
        assert events[-1].kind == MANIFEST
        manifest = RunManifest.find(events)
        assert manifest.command == "simulate"
        assert manifest.protocol == "alternating-bit"
        assert manifest.seed == 4
        assert manifest.status == "ok"
        # envelope counters include the tracer's totals
        for name, total in manifest.counters.items():
            assert payload["counters"][name] == total

    def test_verify_trace_has_explore_spans(self, capsys, tmp_path):
        path = str(tmp_path / "verify.jsonl")
        code, _ = run_json(
            capsys,
            [
                "verify",
                "abp",
                "--messages",
                "1",
                "--capacity",
                "1",
                "--trace",
                path,
            ],
        )
        assert code == 0
        events = read_events(path)
        # The compiled core spans its whole search; the engine, when
        # it answers instead, spans each BFS layer.
        expected = (
            "explore.accel" if accel_backend_id() else "explore.layer"
        )
        assert any(
            e.kind == "span_start" and e.name == expected for e in events
        )

    def test_refute_crash_trace(self, capsys, tmp_path):
        path = str(tmp_path / "crash.jsonl")
        code, payload = run_json(
            capsys, ["refute-crash", "abp", "--trace", path]
        )
        assert code == 0
        events = read_events(path)
        assert any(
            e.kind == "span_start" and e.name == "refute.crash"
            for e in events
        )
        assert payload["counters"]["refute.crash_injections"] >= 1

    def test_trace_subcommand_summarizes(self, capsys, tmp_path):
        path = str(tmp_path / "sim.jsonl")
        assert (
            main(["simulate", "abp", "--messages", "2", "--trace", path])
            == 0
        )
        capsys.readouterr()
        code, payload = run_json(capsys, ["trace", path])
        assert code == 0
        assert_envelope(payload, "trace")
        assert payload["details"]["manifest"]["command"] == "simulate"
        assert payload["details"]["events"] == len(read_events(path))

    def test_trace_subcommand_text_output(self, capsys, tmp_path):
        path = str(tmp_path / "sim.jsonl")
        main(["simulate", "abp", "--messages", "2", "--trace", path])
        capsys.readouterr()
        assert main(["trace", path]) == 0
        out = capsys.readouterr().out
        assert "manifest:" in out
        assert "sim.steps" in out

    def test_trace_subcommand_missing_file(self, capsys):
        code = main(["trace", "/nonexistent/trace.jsonl"])
        out = capsys.readouterr().out
        assert code == 2
        assert "cannot read trace" in out

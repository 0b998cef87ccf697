"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import main, resolve_protocol


class TestResolve:
    def test_simple_name(self):
        assert resolve_protocol("abp").name == "alternating-bit"

    def test_parameterized(self):
        assert (
            resolve_protocol("sliding-window:4").name
            == "sliding-window(w=4,N=5)"
        )
        assert (
            resolve_protocol("mod-stenning:8").name
            == "modulo-stenning(N=8)"
        )

    def test_default_parameter(self):
        assert (
            resolve_protocol("sliding-window").name
            == "sliding-window(w=2,N=3)"
        )

    def test_unknown_rejected(self):
        with pytest.raises(SystemExit):
            resolve_protocol("nope")


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "abp" in out and "stenning" in out

    def test_check(self, capsys):
        assert main(["check", "abp"]) == 0
        out = capsys.readouterr().out
        assert "message-independent: yes" in out
        assert "crashing" in out
        assert "k = 1" in out

    def test_check_unbounded_headers(self, capsys):
        assert main(["check", "stenning"]) == 0
        assert "unbounded" in capsys.readouterr().out

    def test_refute_crash(self, capsys):
        assert main(["refute-crash", "abp"]) == 0
        out = capsys.readouterr().out
        assert "theorem-7.5" in out
        assert "independently validated: True" in out

    def test_refute_crash_rejects_nonvolatile(self, capsys):
        assert main(["refute-crash", "baratz-segall"]) == 2
        assert "rejected" in capsys.readouterr().out

    def test_refute_headers(self, capsys):
        assert main(["refute-headers", "mod-stenning:2"]) == 0
        out = capsys.readouterr().out
        assert "theorem-8.5" in out

    def test_refute_headers_rejects_stenning(self, capsys):
        assert main(["refute-headers", "stenning"]) == 2

    def test_refute_headers_message_size(self, capsys):
        assert (
            main(
                [
                    "refute-headers",
                    "fragmenting:1",
                    "--message-size",
                    "2",
                ]
            )
            == 0
        )

    def test_simulate_clean(self, capsys):
        assert (
            main(
                [
                    "simulate",
                    "sliding-window:4",
                    "--messages",
                    "6",
                    "--loss",
                    "0.3",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "delivered 6" in out
        assert "DL4" in out

    def test_simulate_detects_violations(self, capsys):
        # ABP over heavy reordering: the audit reports the violation.
        code = main(
            [
                "simulate",
                "abp",
                "--reorder",
                "6",
                "--loss",
                "0.2",
                "--seed",
                "1",
                "--messages",
                "12",
            ]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "VIOLATED" in out

    @pytest.mark.parametrize("reorder", ["1", "2"])
    @pytest.mark.parametrize("loss", ["1.0", "-0.5"])
    def test_simulate_bad_loss_is_an_error_envelope(self, capsys, loss, reorder):
        import json

        argv = ["simulate", "abp", "--loss", loss, "--reorder", reorder]
        assert main(argv + ["--seed", "3", "--json"]) == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["command"] == "simulate"
        assert payload["status"] == "error"
        assert "loss_rate" in payload["details"]["error"]
        assert main(argv) == 2
        assert "bad channel parameters" in capsys.readouterr().out

    def test_growth(self, capsys):
        assert (
            main(["growth", "stenning", "--checkpoints", "1", "4"]) == 0
        )
        assert "slope: 2.00" in capsys.readouterr().out

    def test_refute_crash_json(self, capsys):
        import json

        assert main(["refute-crash", "abp", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert sorted(payload) == [
            "command",
            "counters",
            "details",
            "duration_s",
            "status",
        ]
        assert payload["command"] == "refute-crash"
        assert payload["status"] == "ok"
        assert payload["details"]["theorem"] == "theorem-7.5"
        assert payload["details"]["validated"] is True
        assert payload["details"]["behavior"][0]["name"] == "wake"
        assert payload["counters"]["refute.pump_levels"] >= 1

    def test_verify_command(self, capsys):
        assert main(["verify", "abp", "--messages", "2"]) == 0
        out = capsys.readouterr().out
        assert "invariant holds" in out

    def test_verify_reorder_counterexample(self, capsys):
        code = main(["verify", "abp", "--reorder-depth", "2"])
        out = capsys.readouterr().out
        assert code == 1
        assert "counterexample" in out

    def test_experiments_subset(self, capsys):
        assert main(["experiments", "--only", "E6"]) == 0
        out = capsys.readouterr().out
        assert "[E6]" in out and "k-boundedness" in out

    def test_experiments_markdown_to_file(self, capsys, tmp_path):
        target = tmp_path / "report.md"
        assert (
            main(
                [
                    "experiments",
                    "--only",
                    "E6",
                    "--format",
                    "markdown",
                    "--output",
                    str(target),
                ]
            )
            == 0
        )
        assert "### E6" in target.read_text()

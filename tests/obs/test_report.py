"""RunReport envelope tests, unit-level and on each result object."""

from __future__ import annotations

from repro.obs import (
    STATUS_ERROR,
    STATUS_FINDINGS,
    STATUS_OK,
    STATUS_VIOLATION,
    RunReport,
)

ENVELOPE_KEYS = ["command", "counters", "details", "duration_s", "status"]


def assert_envelope(record, command):
    assert sorted(record) == ENVELOPE_KEYS
    assert record["command"] == command
    assert record["status"] in (
        STATUS_OK,
        STATUS_VIOLATION,
        STATUS_FINDINGS,
        STATUS_ERROR,
    )
    assert isinstance(record["counters"], dict)
    assert isinstance(record["duration_s"], (int, float))
    assert isinstance(record["details"], dict)


class TestRunReport:
    def test_five_key_envelope(self):
        report = RunReport(command="x", status=STATUS_OK)
        assert_envelope(report.to_dict(), "x")

    def test_artifacts_folded_into_details(self):
        report = RunReport(
            command="x",
            status=STATUS_OK,
            details={"a": 1},
            artifacts={"trace": "out.jsonl"},
        )
        record = report.to_dict()
        assert sorted(record) == ENVELOPE_KEYS
        assert record["details"]["artifacts"] == {"trace": "out.jsonl"}
        assert record["details"]["a"] == 1

    def test_exit_codes(self):
        codes = {
            STATUS_OK: 0,
            STATUS_VIOLATION: 1,
            STATUS_FINDINGS: 1,
            STATUS_ERROR: 2,
        }
        for status, code in codes.items():
            assert RunReport(command="x", status=status).exit_code == code
        assert RunReport(command="x", status="weird").exit_code == 2

    def test_ok_property(self):
        assert RunReport(command="x", status=STATUS_OK).ok
        assert not RunReport(command="x", status=STATUS_VIOLATION).ok

    def test_counters_sorted_and_duration_rounded(self):
        report = RunReport(
            command="x",
            status=STATUS_OK,
            counters={"b": 2, "a": 1},
            duration_s=0.123456789,
        )
        record = report.to_dict()
        assert list(record["counters"]) == ["a", "b"]
        assert record["duration_s"] == 0.123457


class TestResultObjectReports:
    def test_exploration_result(self):
        from repro.analysis.model_check import build_closed_system
        from repro.ioa import explore
        from repro.protocols import alternating_bit_protocol

        composition, invariant, _ = build_closed_system(
            alternating_bit_protocol(), messages=1, capacity=1
        )
        result = explore(composition, invariant=invariant)
        report = result.report(duration_s=0.5)
        assert_envelope(report.to_dict(), "explore")
        assert report.counters["explore.states"] == len(result.states)
        assert report.status == STATUS_OK

    def test_model_check_result(self):
        from repro.analysis import verify_delivery_order
        from repro.protocols import alternating_bit_protocol

        result = verify_delivery_order(
            alternating_bit_protocol(), messages=1, capacity=1
        )
        report = result.report()
        assert_envelope(report.to_dict(), "verify")
        assert report.status == STATUS_OK
        assert report.counters["explore.states"] == result.states_explored

    def test_model_check_violation(self):
        from repro.analysis import verify_delivery_order
        from repro.protocols import alternating_bit_protocol

        result = verify_delivery_order(
            alternating_bit_protocol(),
            messages=2,
            capacity=2,
            reorder_depth=2,
        )
        report = result.report()
        assert report.status == STATUS_VIOLATION
        assert report.exit_code == 1
        assert report.details["counterexample"]

    def test_scenario_result(self):
        from repro.protocols import alternating_bit_protocol
        from repro.sim import FaultPlan, Session, fifo_system, generate_script

        system = fifo_system(alternating_bit_protocol())
        script = generate_script(system, FaultPlan(messages=2, seed=0))
        result = Session(system, tuple(script.actions), seed=0).run()
        report = result.report()
        assert_envelope(report.to_dict(), "simulate")
        assert report.counters["sim.steps"] == result.steps
        assert report.counters["sim.messages_delivered"] == 2

    def test_crash_certificate(self):
        from repro.impossibility import refute_crash_tolerance
        from repro.protocols import alternating_bit_protocol

        certificate = refute_crash_tolerance(alternating_bit_protocol())
        report = certificate.report(duration_s=0.1)
        assert_envelope(report.to_dict(), "refute-crash")
        assert report.status == STATUS_OK  # validated: the job succeeded
        assert report.counters["refute.behavior_length"] > 0

    def test_headers_certificate(self):
        from repro.impossibility import refute_bounded_headers
        from repro.protocols import modulo_stenning_protocol

        certificate = refute_bounded_headers(modulo_stenning_protocol(2))
        report = certificate.report()
        assert_envelope(report.to_dict(), "refute-headers")
        assert report.status == STATUS_OK

    def test_lint_report(self):
        from repro.lint import lint_targets, target_from
        from repro.protocols import alternating_bit_protocol

        lint = lint_targets([target_from(alternating_bit_protocol())])
        report = lint.report()
        assert_envelope(report.to_dict(), "lint")
        assert report.counters["lint.targets"] == 1

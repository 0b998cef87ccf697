"""One analysis per property: each per-station report is built once.

REP201/REP301, REP203/REP302 and REP202/REP303 are two views of one
report per station (:mod:`repro.lint.taint`, :mod:`repro.lint.intervals`,
:mod:`repro.lint.crash`).  These tests count the builds, check that the
syntactic views never start the dataflow engine on their own, and that
an engine failure shows up as an "unverified" finding in every
dataflow view, and REP304 then says a claim could not be verified
instead of reporting a contradiction it never found.
"""

from __future__ import annotations

import dataclasses
import importlib
from collections import Counter

import pytest

from repro.lint import RULES, lint_targets, target_from, zoo_targets
from repro.lint import dataflow, registry
from repro.lint.crash import CrashReport
from repro.lint.intervals import HeaderReport
from repro.lint.source import build_source_audits
from repro.lint.taint import MessageReport


def _count_inits(monkeypatch, cls, builds: Counter, audits: list):
    """Count ``cls`` instances per audit (keeping the audits alive so
    their ids stay unique)."""
    original = cls.__init__

    def counting_init(self, *args, **kwargs):
        original(self, *args, **kwargs)
        audits.append(self.audit)
        builds[cls.__name__, id(self.audit)] += 1

    monkeypatch.setattr(cls, "__init__", counting_init)


def _fixture_targets(module_name: str):
    module = importlib.import_module(f"tests.lint.fixtures.{module_name}")
    environment = getattr(module, "ENVIRONMENT", None)
    return [
        target_from(obj, environment=environment)
        for obj in module.LINT_TARGETS
    ]


def test_each_report_is_built_once_per_station(monkeypatch):
    builds: Counter = Counter()
    audits: list = []
    for cls in (
        MessageReport,
        HeaderReport,
        CrashReport,
        dataflow.AnalysisResult,
    ):
        _count_inits(monkeypatch, cls, builds, audits)
    report = lint_targets(zoo_targets(), deep=True)
    stations = {id(audit) for audit in audits}
    assert len(stations) == 2 * len(report.targets)
    for name in ("MessageReport", "HeaderReport", "CrashReport"):
        per_station = [builds[name, station] for station in stations]
        assert per_station == [1] * len(stations), name
    # The taint and interval analyses share one engine pass per station.
    engine = [builds["AnalysisResult", station] for station in stations]
    assert engine == [1] * len(stations)


def test_syntactic_views_run_no_dataflow(monkeypatch):
    models = []
    original = dataflow.ProgramModel.__init__

    def recording_init(self, audit):
        models.append((audit.target, audit.station))
        original(self, audit)

    monkeypatch.setattr(dataflow.ProgramModel, "__init__", recording_init)
    for target in zoo_targets() + _fixture_targets(
        "rep201_message_introspection"
    ) + _fixture_targets("rep202_stable_storage"):
        for audit in build_source_audits(target.build()):
            for code in ("REP201", "REP202"):
                list(RULES[code].checker(audit))
    assert models == []
    # Nor does a zoo lint without --deep-source: no zoo Packet header
    # has arithmetic for the interval analysis to judge.
    assert lint_targets(zoo_targets()).ok
    assert models == []


@pytest.fixture
def failing_engine(monkeypatch):
    def fail(self, *args, **kwargs):
        raise RuntimeError("engine down")

    monkeypatch.setattr(dataflow.Analyzer, "run_method", fail)


def test_engine_failure_is_reported_unverified(failing_engine):
    report = lint_targets(zoo_targets(), deep=True)
    unverified = {
        (d.code, d.target, d.message.split(" logic ")[0])
        for d in report.diagnostics
        if "unverified" in d.message
    }
    # Stenning's transmitter declares unbounded headers, so REP302 has
    # nothing to prove there: REP301 alone must show the failure.
    assert ("REP301", "stenning", "transmitter") in unverified
    assert ("REP302", "abp", "transmitter") in unverified
    assert ("REP303", "baratz-segall-volatile", "transmitter") in unverified
    for diagnostic in report.diagnostics:
        if diagnostic.code in ("REP301", "REP302"):
            assert "RuntimeError('engine down')" in diagnostic.message
    codes = {code for code, _, _ in unverified}
    assert codes == {"REP301", "REP302", "REP303"}


def _rep304_messages(module_name: str, claims: dict):
    """REP304's messages for a fixture protocol declaring ``claims``."""
    module = importlib.import_module(f"tests.lint.fixtures.{module_name}")
    protocol = dataclasses.replace(module.PROTOCOL, claims=claims)
    report = lint_targets([target_from(protocol)], deep=True)
    return [d.message for d in report.diagnostics if d.code == "REP304"]


#: Claims each of the two analyses behind REP304 (b) must back.
CLAIMS = {
    "rep301_payload_flow": ({"message_independent": True}, "taint"),
    "rep303_guarded_survivor": ({"crashing": True}, "escape"),
}


@pytest.mark.parametrize("module_name", sorted(CLAIMS))
def test_rep304_reports_a_found_contradiction(module_name):
    claims, analysis = CLAIMS[module_name]
    (message,) = _rep304_messages(module_name, claims)
    assert f"the {analysis} analysis" in message
    assert " found " in message and "could not be verified" not in message


@pytest.mark.parametrize("module_name", sorted(CLAIMS))
def test_rep304_says_unverified_when_the_analysis_failed(
    failing_engine, module_name
):
    claims, analysis = CLAIMS[module_name]
    (message,) = _rep304_messages(module_name, claims)
    assert f"the {analysis} analysis" in message
    assert message.endswith("failed, so the claim could not be verified")
    assert " found " not in message


def test_rules_stay_in_code_order_whatever_the_import_order():
    checker = RULES["REP201"].checker
    try:
        registry.rule(
            "REP150", "late-rule", "§0", "registered last", "source"
        )(checker)
        assert list(RULES) == sorted(RULES)
        assert list(RULES).index("REP150") == list(RULES).index("REP106") + 1
    finally:
        del RULES["REP150"]

"""Tests for the fuzzer's oracle layer (scoping, earliest prefix, catalog)."""

from __future__ import annotations

import pytest

from repro.conformance import (
    DL_ORACLES,
    PL_ORACLES,
    FuzzConfig,
    SubSeeds,
    build_script,
    build_system,
    check_execution,
    execute_script,
    oracle_catalog,
)
from repro.conformance.oracles import PREFIX, QUIESCENT
from repro.datalink.properties import dl4


SEEDS = SubSeeds(channel_tr=1, channel_rt=2, script=3, interleave=4)


def run_once(protocol, channel, config=None, seeds=SEEDS):
    config = config or FuzzConfig()
    system = build_system(protocol, channel, seeds, config)
    script = build_script(system, seeds, config)
    result = execute_script(system, script.actions, seeds, config)
    return system, result


class TestCatalog:
    def test_every_paper_predicate_is_registered(self):
        names = {oracle.name for oracle in DL_ORACLES + PL_ORACLES}
        assert {"DL-well-formed", "valid", "PL-well-formed"} <= names
        assert {f"DL{i}" for i in range(1, 9)} <= names
        assert {f"PL{i}" for i in range(1, 6)} <= names
        assert "PL6-finite" in names

    def test_scopes_are_sound(self):
        # Liveness-flavored predicates must never run on truncated
        # traces: a fair extension could cure the apparent violation.
        by_name = {o.name: o for o in DL_ORACLES + PL_ORACLES}
        for name in ("DL1", "DL7", "DL8", "valid", "PL6-finite"):
            assert by_name[name].scope == QUIESCENT
        for name in ("DL-well-formed", "DL4", "DL6", "PL2", "PL5"):
            assert by_name[name].scope == PREFIX

    def test_pl5_applies_only_to_fifo_channels(self):
        by_name = {o.name: o for o in PL_ORACLES}
        assert by_name["PL5"].fifo_only

    def test_catalog_carries_paper_sections(self):
        # DL/PL oracles cite sections of the source paper; the
        # stabilization family cites the self-stabilization literature.
        for entry in oracle_catalog():
            assert entry["paper"].startswith(("§", "arXiv:"))


class TestCheckExecution:
    def test_correct_protocol_passes_all_oracles(self):
        system, result = run_once("alternating_bit", "fifo")
        assert result.quiescent
        assert check_execution(system, result) == []

    def test_naive_duplicates_flag_dl4(self):
        config = FuzzConfig()
        found = []
        for s in range(6):
            seeds = SubSeeds(s * 4 + 1, s * 4 + 2, s * 4 + 3, s * 4 + 4)
            system, result = run_once("naive", "nonfifo", config, seeds)
            found += [v.oracle for v in check_execution(system, result)]
        assert "DL4" in found

    def test_direct_protocol_loses_flag_liveness(self):
        found = []
        for s in range(6):
            seeds = SubSeeds(s * 4 + 1, s * 4 + 2, s * 4 + 3, s * 4 + 4)
            system, result = run_once("naive_direct", "fifo", FuzzConfig(), seeds)
            found += [v.oracle for v in check_execution(system, result)]
        # Fire-and-forget loses messages: DL7 (gaps) or DL8 (liveness).
        assert set(found) & {"DL7", "DL8"}

    def test_violation_records_direction_for_pl_and_not_dl(self):
        system, result = run_once("naive", "nonfifo")
        for violation in check_execution(system, result):
            if violation.layer == "dl":
                assert violation.direction is None
            else:
                assert violation.direction in (("t", "r"), ("r", "t"))

    def test_prefix_length_reported_for_prefix_oracles(self):
        for s in range(6):
            seeds = SubSeeds(s * 4 + 1, s * 4 + 2, s * 4 + 3, s * 4 + 4)
            system, result = run_once("naive", "nonfifo", FuzzConfig(), seeds)
            violations = [
                v for v in check_execution(system, result) if v.scope == PREFIX
            ]
            if violations:
                break
        assert violations
        for violation in violations:
            assert violation.prefix_length is not None
            assert 1 <= violation.prefix_length <= len(result.behavior)

    def test_describe_mentions_oracle_and_witness(self):
        system, result = run_once("naive", "nonfifo")
        violations = check_execution(system, result)
        assert violations
        text = violations[0].describe()
        assert violations[0].oracle in text
        assert violations[0].witness in text


class TestEarliestPrefix:
    def test_prefix_length_matches_linear_scan(self):
        system, result = run_once("naive", "nonfifo")
        behavior = result.behavior
        assert not dl4(behavior, "t", "r").holds
        (violation,) = [
            v for v in check_execution(system, result) if v.oracle == "DL4"
        ]
        fast = violation.prefix_length
        slow = next(
            n
            for n in range(1, len(behavior) + 1)
            if not dl4(behavior[:n], "t", "r").holds
        )
        assert fast == slow
        # Minimality: one event less and the oracle still holds.
        assert dl4(behavior[: fast - 1], "t", "r").holds

"""Tests for counterexample shrinking."""

from __future__ import annotations

import pytest

from repro.channels.actions import WAKE
from repro.conformance import (
    FuzzConfig,
    SubSeeds,
    build_script,
    build_system,
    check_execution,
    execute_script,
    script_admissible,
    shrink_script,
)
from repro.datalink.actions import SEND_MSG


def find_violating_run(protocol, channel, config, max_tries=10):
    for s in range(max_tries):
        seeds = SubSeeds(s * 4 + 1, s * 4 + 2, s * 4 + 3, s * 4 + 4)
        system = build_system(protocol, channel, seeds, config)
        script = build_script(system, seeds, config)
        result = execute_script(system, script.actions, seeds, config)
        violations = check_execution(system, result)
        if violations:
            return system, script, seeds, violations[0]
    raise AssertionError(f"no violation found for {protocol}/{channel}")


class TestShrink:
    def test_shrinks_naive_dl4_to_minimal_script(self):
        config = FuzzConfig()
        system, script, seeds, violation = find_violating_run(
            "naive", "nonfifo", config
        )
        assert violation.oracle == "DL4"
        shrunk = shrink_script(
            system, script.actions, violation.oracle, seeds, config
        )
        assert shrunk.length < shrunk.original_length
        # One duplicate delivery needs one send and both wakes: 3 actions.
        assert shrunk.length <= 12
        kinds = [a.name for a in shrunk.actions]
        assert kinds.count(SEND_MSG) >= 1
        assert kinds.count(WAKE) >= 2

    def test_shrunk_script_still_violates_same_oracle(self):
        config = FuzzConfig()
        system, script, seeds, violation = find_violating_run(
            "naive", "nonfifo", config
        )
        shrunk = shrink_script(
            system, script.actions, violation.oracle, seeds, config
        )
        result = execute_script(system, shrunk.actions, seeds, config)
        oracles = {v.oracle for v in check_execution(system, result)}
        assert violation.oracle in oracles

    def test_shrunk_script_is_admissible(self):
        config = FuzzConfig()
        system, script, seeds, violation = find_violating_run(
            "naive", "nonfifo", config
        )
        shrunk = shrink_script(
            system, script.actions, violation.oracle, seeds, config
        )
        assert script_admissible(shrunk.actions, system.t, system.r)

    def test_local_minimality_single_deletions(self):
        config = FuzzConfig()
        system, script, seeds, violation = find_violating_run(
            "naive", "nonfifo", config
        )
        shrunk = shrink_script(
            system, script.actions, violation.oracle, seeds, config
        )
        assert not shrunk.budget_exhausted
        # No single action can be deleted without losing the violation
        # (or admissibility): that is what "locally minimal" promises.
        for index in range(len(shrunk.actions)):
            candidate = shrunk.actions[:index] + shrunk.actions[index + 1 :]
            if not candidate or not script_admissible(
                candidate, system.t, system.r
            ):
                continue
            result = execute_script(system, candidate, seeds, config)
            oracles = {v.oracle for v in check_execution(system, result)}
            assert violation.oracle not in oracles

    def test_budget_bounds_reexecutions(self):
        config = FuzzConfig(shrink_budget=5)
        system, script, seeds, violation = find_violating_run(
            "naive", "nonfifo", FuzzConfig()
        )
        shrunk = shrink_script(
            system, script.actions, violation.oracle, seeds, config
        )
        assert shrunk.attempts <= 5

    def test_crash_storm_scripts_shrink_in_pairs(self):
        from repro.conformance import with_mix

        config = with_mix(FuzzConfig(), "crash-storm")
        system, script, seeds, violation = find_violating_run(
            "naive", "nonfifo", config, max_tries=15
        )
        shrunk = shrink_script(
            system, script.actions, violation.oracle, seeds, config
        )
        # Whatever survives must still be a well-formed script.
        assert script_admissible(shrunk.actions, system.t, system.r)
        assert shrunk.length <= len(script.actions)


# ----------------------------------------------------------------------
# Differential: checkpointed, early-stopping shrink vs full re-execution
# ----------------------------------------------------------------------

MATRIX_PROTOCOLS = ("naive", "naive_direct", "alternating_bit", "mod_stenning")
MATRIX_CHANNELS = ("fifo", "nonfifo", "bounded_nonfifo")
MATRIX_MIXES = ("default", "crash-storm", "link-flap", "reorder-flood")


def _violations(protocol, channel, config, seed, runs):
    """Each run's script with its distinct violated oracles, as the
    fuzzer shrinks them."""
    import random

    from repro.conformance.harness import resolve_pair

    master = random.Random(seed)
    resolved = resolve_pair(protocol, channel)
    for _ in range(runs):
        seeds = SubSeeds.derive(master)
        system = build_system(
            protocol, channel, seeds, config, resolved=resolved
        )
        script = build_script(system, seeds, config)
        result = execute_script(system, script.actions, seeds, config)
        found = check_execution(system, result, config)
        for oracle in dict.fromkeys(v.oracle for v in found):
            yield system, script.actions, oracle, seeds


def _compare(protocol, channel, config, seed=11, runs=3):
    from tests.conformance.reference_shrink import reference_shrink

    compared = []
    for system, actions, oracle, seeds in _violations(
        protocol, channel, config, seed, runs
    ):
        shrunk = shrink_script(system, actions, oracle, seeds, config)
        reference = reference_shrink(system, actions, oracle, seeds, config)
        assert (
            shrunk.actions,
            shrunk.attempts,
            shrunk.rounds,
            shrunk.budget_exhausted,
        ) == (
            reference.actions,
            reference.attempts,
            reference.rounds,
            reference.budget_exhausted,
        ), (protocol, channel, oracle)
        compared.append(oracle)
    return compared


class TestCheckpointedShrinkMatchesReference:
    """The shrinker resumes candidates from checkpoints and stops
    prefix-scope targets at their first violation; its results must be
    those of re-executing every candidate in full."""

    @pytest.mark.parametrize("channel", MATRIX_CHANNELS)
    @pytest.mark.parametrize("protocol", MATRIX_PROTOCOLS)
    def test_fault_mixes(self, protocol, channel):
        from repro.conformance import with_mix

        compared = []
        for mix in MATRIX_MIXES:
            compared += _compare(protocol, channel, with_mix(FuzzConfig(), mix))
        if protocol.startswith("naive"):
            assert compared

    @pytest.mark.parametrize("channel", ("nonfifo", "bounded_nonfifo"))
    @pytest.mark.parametrize("protocol", MATRIX_PROTOCOLS)
    def test_arbitrary_init(self, protocol, channel):
        config = FuzzConfig(init_mode="arbitrary", messages=4, max_steps=4000)
        compared = _compare(protocol, channel, config, seed=3, runs=4)
        assert all(oracle.startswith("SSTAB") for oracle in compared)

    def test_matrix_shrinks_every_scope(self):
        # Prefix-scope (DL4/DL6) and quiescent-scope targets both occur
        # on the naive strawman, so both verdict paths are compared.
        compared = _compare("naive", "nonfifo", FuzzConfig(), runs=6)
        assert {"DL4", "DL6"} & set(compared)
        assert {"DL7", "DL8", "valid"} & set(compared)

    def test_arbitrary_init_convicts(self):
        config = FuzzConfig(init_mode="arbitrary", messages=4, max_steps=4000)
        compared = _compare(
            "alternating_bit", "bounded_nonfifo", config, seed=3, runs=5
        )
        assert "SSTAB2" in compared

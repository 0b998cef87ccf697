"""Tests for sub-seed derivation, system building, and admissibility."""

from __future__ import annotations

import collections
import random

import pytest

from repro.conformance import (
    FAULT_MIXES,
    FuzzConfig,
    SubSeeds,
    build_script,
    build_system,
    execute_script,
    resolve_fuzz_channel,
    resolve_fuzz_protocol,
    script_admissible,
    with_mix,
)


class TestRegistry:
    def test_every_protocol_resolves(self):
        from repro.conformance import FUZZ_PROTOCOLS

        for name in FUZZ_PROTOCOLS:
            assert resolve_fuzz_protocol(name).name

    def test_dash_and_underscore_interchangeable(self):
        a = resolve_fuzz_protocol("alternating-bit")
        b = resolve_fuzz_protocol("alternating_bit")
        assert a.name == b.name

    def test_unknown_names_rejected(self):
        with pytest.raises(KeyError):
            resolve_fuzz_protocol("nope")
        with pytest.raises(KeyError):
            resolve_fuzz_channel("nope")

    def test_fifo_channel_is_fifo_only(self):
        fifo = resolve_fuzz_channel("fifo")
        assert fifo.automaton("t", "r").fifo_only
        assert fifo.start(1, 0.2, 4, 64, 4).delivery.is_monotone()
        nonfifo = resolve_fuzz_channel("nonfifo")
        assert not nonfifo.automaton("t", "r").fifo_only


class TestSubSeeds:
    def test_derivation_deterministic(self):
        a = SubSeeds.derive(random.Random(9))
        b = SubSeeds.derive(random.Random(9))
        assert a == b

    def test_roundtrip(self):
        seeds = SubSeeds.derive(random.Random(3))
        assert SubSeeds.from_dict(seeds.to_dict()) == seeds


class TestMixes:
    def test_named_mixes_apply(self):
        storm = with_mix(FuzzConfig(), "crash-storm")
        assert storm.crash_probability > 0
        clean = with_mix(FuzzConfig(), "clean")
        assert clean.loss_rate == 0.0

    def test_default_mix_has_no_crashes(self):
        # Crashes legitimately defeat crashing protocols (Theorem 7.5),
        # so the default mix must not inject them: a correct protocol
        # fuzzed with defaults must report zero violations.
        assert FuzzConfig().crash_probability == 0.0
        assert FAULT_MIXES["default"].get("crash_probability", 0.0) == 0.0

    def test_unknown_mix_rejected(self):
        with pytest.raises(KeyError):
            with_mix(FuzzConfig(), "nope")


class TestDeterminism:
    def test_identical_runs_are_bit_identical(self):
        config = FuzzConfig()
        seeds = SubSeeds(11, 22, 33, 44)

        def once():
            system = build_system("stenning", "nonfifo", seeds, config)
            script = build_script(system, seeds, config)
            result = execute_script(system, script.actions, seeds, config)
            return script.actions, result.behavior, result.steps

        assert once() == once()

    def test_global_rng_untouched(self):
        config = FuzzConfig()
        seeds = SubSeeds(11, 22, 33, 44)
        random.seed(1234)
        before = random.getstate()
        system = build_system("alternating_bit", "fifo", seeds, config)
        script = build_script(system, seeds, config)
        execute_script(system, script.actions, seeds, config)
        assert random.getstate() == before


class TestAdmissibility:
    def test_generated_scripts_are_admissible(self):
        config = with_mix(FuzzConfig(), "crash-storm")
        for s in range(5):
            seeds = SubSeeds(s, s + 1, s + 2, s + 3)
            system = build_system("alternating_bit", "fifo", seeds, config)
            script = build_script(system, seeds, config)
            assert script_admissible(script.actions, "t", "r")

    def test_broken_alternation_rejected(self):
        seeds = SubSeeds(1, 2, 3, 4)
        system = build_system("alternating_bit", "fifo", seeds, FuzzConfig())
        bad = (system.wake_t(), system.wake_t(), system.wake_r())
        assert not script_admissible(bad, "t", "r")

    def test_sleeping_receiver_rejected(self):
        # Deleting the receiver's wake would let liveness blame fall on
        # the environment; the admissibility guard must refuse.
        seeds = SubSeeds(1, 2, 3, 4)
        system = build_system("alternating_bit", "fifo", seeds, FuzzConfig())
        bad = (system.wake_t(),)
        assert not script_admissible(bad, "t", "r")

    def test_send_outside_working_interval_rejected(self):
        from repro.alphabets import Message

        seeds = SubSeeds(1, 2, 3, 4)
        system = build_system("alternating_bit", "fifo", seeds, FuzzConfig())
        bad = (
            system.wake_t(),
            system.wake_r(),
            system.fail_t(),
            system.send(Message(0, "s")),
            system.wake_t(),
        )
        assert not script_admissible(bad, "t", "r")


class TestOneSystemPerResolve:
    """A campaign composes its pair once; a run differs only in its start."""

    @pytest.fixture
    def built(self, monkeypatch):
        """Counts of registry resolves and of the automata they compose."""
        from repro.channels.bounded import BoundedChannel
        from repro.channels.permissive import PermissiveChannel
        from repro.conformance import pool
        from repro.ioa.composition import Composition
        from repro.ioa.hiding import Hidden

        counts = collections.Counter()

        def count(owner, name, key):
            original = getattr(owner, name)

            def counted(*args, **kwargs):
                counts[key] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)

        count(Composition, "__init__", "composition")
        count(Hidden, "__init__", "hidden")
        count(PermissiveChannel, "__init__", "channel")
        count(BoundedChannel, "__init__", "channel")
        count(pool, "resolve_pair", "resolve")
        return counts

    ONE = {"resolve": 1, "composition": 1, "hidden": 1, "channel": 2}

    @pytest.mark.parametrize(
        "protocol, channel",
        [("alternating_bit", "fifo"), ("naive", "bounded_nonfifo")],
    )
    def test_serial_campaign(self, built, protocol, channel):
        from repro.conformance import fuzz_campaign

        config = FuzzConfig(runs=20, messages=3, shrink_budget=40)
        campaign = fuzz_campaign(protocol, channel, 3, config)
        assert len(campaign.runs) == 20
        assert built == self.ONE

    def test_load_run(self, built):
        from repro.sim.load import LoadConfig, run_load

        result = run_load(
            "alternating_bit", "nonfifo", 3, LoadConfig(sessions=200, messages=2)
        )
        assert len(result.sessions) == 200
        assert built == self.ONE

    @pytest.mark.parametrize("channel", ["nonfifo", "bounded_nonfifo"])
    def test_runs_share_the_composition_not_the_start(self, channel):
        from repro.conformance.harness import resolve_pair

        config = FuzzConfig()
        resolved = resolve_pair("alternating_bit", channel)
        a, b = (
            build_system("alternating_bit", channel, seeds, config, resolved)
            for seeds in (SubSeeds(1, 2, 3, 4), SubSeeds(5, 6, 7, 8))
        )
        assert a.composition is b.composition is resolved[0].composition
        assert a.automaton is b.automaton
        assert resolved[0].start is None
        if channel == "nonfifo":
            assert a.initial_state() != b.initial_state()
        else:
            # A bounded channel's plan takes no part in state equality.
            assert a.initial_state() == b.initial_state()
            assert a.initial_state()[2].plan != b.initial_state()[2].plan

    def test_arbitrary_campaign_probes_once_per_run(self, monkeypatch):
        import dataclasses

        from repro.conformance import arbitrary, fuzz_campaign

        probes = []
        pools = arbitrary.component_state_pools

        def counted(system):
            probes.append(system)
            return pools(system)

        monkeypatch.setattr(arbitrary, "component_state_pools", counted)
        config = dataclasses.replace(
            FuzzConfig(),
            runs=5,
            messages=4,
            max_steps=4000,
            init_mode="arbitrary",
        )
        campaign = fuzz_campaign(
            "alternating_bit", "bounded_nonfifo", 3, config
        )
        # Shrinking re-executes convicted runs, from the corrupted start
        # their run computed once.
        assert any(v.shrink.attempts for v in campaign.violations)
        assert len(probes) == len(campaign.runs) == 5

"""Tests for the Theorem 8.5 bounded-header engine."""

from __future__ import annotations

import pytest

from repro.channels.actions import RECEIVE_PKT
from repro.channels.permissive import PermissiveChannel
from repro.datalink import dl3, dl_well_formed, wdl_module
from repro.datalink.actions import receive_msg
from repro.datalink.message_independence import packet_class
from repro.impossibility import (
    DUPLICATE_DELIVERY,
    UNSENT_DELIVERY,
    EngineError,
    refute_bounded_headers,
)
from repro.impossibility.header_engine import BoundedHeaderEngine
from repro.ioa.composition import ComponentSlices
from repro.protocols import (
    alternating_bit_protocol,
    baratz_segall_protocol,
    modulo_stenning_protocol,
    selective_repeat_protocol,
    sliding_window_protocol,
    stenning_protocol,
)

BOUNDED_HEADER_VICTIMS = [
    ("abp", alternating_bit_protocol),
    ("sw1", lambda: sliding_window_protocol(1)),
    ("sw2", lambda: sliding_window_protocol(2)),
    ("sw4", lambda: sliding_window_protocol(4)),
    ("mod-stenning2", lambda: modulo_stenning_protocol(2)),
    ("mod-stenning4", lambda: modulo_stenning_protocol(4)),
    ("mod-stenning8", lambda: modulo_stenning_protocol(8)),
    ("selective-repeat-2", lambda: selective_repeat_protocol(2)),
]


class TestTheorem85:
    @pytest.mark.parametrize(
        "name,factory",
        BOUNDED_HEADER_VICTIMS,
        ids=[n for n, _ in BOUNDED_HEADER_VICTIMS],
    )
    def test_certificate_found_and_validates(self, name, factory):
        certificate = refute_bounded_headers(factory())
        assert certificate.theorem == "theorem-8.5"
        assert certificate.validate()
        assert certificate.kind in (DUPLICATE_DELIVERY, UNSENT_DELIVERY)

    @pytest.mark.parametrize(
        "name,factory",
        BOUNDED_HEADER_VICTIMS,
        ids=[n for n, _ in BOUNDED_HEADER_VICTIMS],
    )
    def test_violation_not_vacuous(self, name, factory):
        certificate = refute_bounded_headers(factory())
        verdict = wdl_module("t", "r").check(certificate.behavior)
        assert not verdict.vacuous and not verdict.in_module
        assert dl_well_formed(certificate.behavior, "t", "r").holds
        assert dl3(certificate.behavior, "t", "r").holds

    def test_no_crash_or_fail_used(self):
        """Section 8's construction uses no fail/crash events at all."""
        certificate = refute_bounded_headers(alternating_bit_protocol())
        assert all(
            a.name not in ("fail", "crash")
            for a in certificate.behavior
        )

    def test_pump_rounds_grow_with_header_count(self):
        """The T-chain bound is k * |headers|: more headers, more rounds."""
        rounds = {}
        for modulus in (2, 4, 8):
            certificate = refute_bounded_headers(
                modulo_stenning_protocol(modulus)
            )
            rounds[modulus] = certificate.stats["pump_rounds"]
        assert rounds[2] < rounds[4] < rounds[8]

    def test_stats_and_narrative(self):
        certificate = refute_bounded_headers(alternating_bit_protocol())
        assert certificate.stats["transit_packets"] >= 1
        assert certificate.stats["k"] >= 1
        assert any(
            "Theorem 8.5" in line for line in certificate.narrative
        )


class TestHypothesisBoundary:
    def test_stenning_rejected_up_front(self):
        """Unbounded headers escape the theorem -- and the engine."""
        with pytest.raises(EngineError, match="bounded"):
            refute_bounded_headers(stenning_protocol())

    def test_baratz_segall_rejected_up_front(self):
        # Unbounded incarnation/sequence headers.
        with pytest.raises(EngineError, match="bounded"):
            refute_bounded_headers(baratz_segall_protocol())

    def test_declared_k_too_small_detected(self):
        with pytest.raises(EngineError, match="exceeding the declared"):
            refute_bounded_headers(sliding_window_protocol(4), k=0)


class TestDeterminism:
    def test_engine_is_deterministic(self):
        a = refute_bounded_headers(alternating_bit_protocol())
        b = refute_bounded_headers(alternating_bit_protocol())
        assert a.behavior == b.behavior
        assert a.stats == b.stats


class TestPumpingCost:
    def test_rounds_reuse_the_probe_instead_of_stepping(self, monkeypatch):
        """A round extends beta with its probe's own prefix of gamma1.

        Counts, unlike timings, do not flake: no pump round steps the
        composition, and each round cleans three channels (two for its
        probe, one to lose p0) plus two for the last probe.
        """
        engine = BoundedHeaderEngine(modulo_stenning_protocol(16))
        calls = {"steps": 0, "in_pump": 0, "make_clean": 0}
        step = ComponentSlices.step
        make_clean = PermissiveChannel.make_clean
        pump_round = engine._pump_round
        pumping = []

        def counted_step(self, state, action):
            calls["steps"] += 1
            calls["in_pump"] += bool(pumping)
            return step(self, state, action)

        def counted_make_clean(self, state):
            calls["make_clean"] += 1
            return make_clean(self, state)

        def flagged_pump_round(probe, p0):
            pumping.append(p0)
            try:
                return pump_round(probe, p0)
            finally:
                pumping.pop()

        monkeypatch.setattr(ComponentSlices, "step", counted_step)
        monkeypatch.setattr(PermissiveChannel, "make_clean", counted_make_clean)
        monkeypatch.setattr(engine, "_pump_round", flagged_pump_round)
        certificate = engine.run()
        rounds = certificate.stats["pump_rounds"]
        assert rounds == 17
        assert calls["steps"] > 0 and calls["in_pump"] == 0
        assert calls["make_clean"] <= 3 * rounds + 2

    def test_memoized_classes_equal_packet_class(self):
        """The engine's per-header class memo agrees with
        ``packet_class`` on every packet of a refutation."""
        for protocol in (
            modulo_stenning_protocol(16),
            sliding_window_protocol(8),
        ):
            engine = BoundedHeaderEngine(protocol)
            engine.run()
            memoized = set(engine._classes)
            received = [
                action.payload
                for action in engine._record.actions
                if action.key == (RECEIVE_PKT, ("t", "r"))
            ]
            for packet in received:
                assert engine._class_of(packet) == packet_class(packet)
            # Every class the run memoized was among those checked.
            assert memoized and memoized <= {p.header_class for p in received}


class TestValidityCheckedEveryRound:
    def test_corruption_after_round_two_is_caught_at_round_two(
        self, monkeypatch
    ):
        """A behavior made invalid by round 2 fails round 2's check.

        The monitor carries its state across rounds, so each check feeds
        it only the new actions; this pins that no round's feed or check
        is skipped (a skipped one would surface a round later, or never).
        """
        engine = BoundedHeaderEngine(modulo_stenning_protocol(4))
        pump_round = engine._pump_round
        rounds = []

        def corrupting_pump_round(probe, p0):
            entry = pump_round(probe, p0)
            rounds.append(probe.message)
            if len(rounds) == 2:
                # Announce the round's message a second time (DL4).
                record = engine._record
                record.step(
                    receive_msg("t", "r", probe.message), record.final_state
                )
            return entry

        monkeypatch.setattr(engine, "_pump_round", corrupting_pump_round)
        with pytest.raises(
            EngineError,
            # Round 2 delivers the engine's second fresh message, h1.
            match=r"^behavior stopped being valid after pumping round 2: "
            r"DL4 fails: message h1 received at events ",
        ):
            engine.run()
        assert len(rounds) == 2

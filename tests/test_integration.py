"""End-to-end integration tests tying the layers together.

These tests walk the paper's narrative: Lemma 4.1 (one message over a
solved WDL), the universal-channel claims, the two theorems applied to
the protocol families, and the Section 9 header-growth contrast.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.alphabets import MessageFactory
from repro.analysis import check_datalink_trace, measure_header_growth
from repro.channels import DeliverySet, PermissiveChannelState
from repro.impossibility import (
    EngineError,
    refute_bounded_headers,
    refute_crash_tolerance,
)
from repro.protocols import (
    alternating_bit_protocol,
    baratz_segall_protocol,
    sliding_window_protocol,
    stenning_protocol,
)
from repro.sim import delivery_stats, fifo_system


class TestLemma41:
    """Any automaton solving WDL has the canonical one-message behavior."""

    @pytest.mark.parametrize(
        "factory",
        [
            alternating_bit_protocol,
            lambda: sliding_window_protocol(2),
            stenning_protocol,
            baratz_segall_protocol,
        ],
    )
    def test_one_message_behavior(self, factory):
        system = fifo_system(factory())
        message = MessageFactory().fresh()
        fragment = system.run_fair(
            system.initial_state(),
            inputs=[
                system.wake_t(),
                system.wake_r(),
                system.send(message),
            ],
        )
        behavior = system.behavior(fragment)
        assert behavior == (
            system.wake_t(),
            system.wake_r(),
            system.send(message),
            system.receive(message),
        )


class TestTheoremBoundaries:
    """The exact boundary of each theorem, walked from both sides."""

    def test_crash_theorem_boundary(self):
        # Inside the hypotheses: defeated.
        assert refute_crash_tolerance(
            alternating_bit_protocol()
        ).validate()
        # Outside (non-volatile memory): rejected.
        with pytest.raises(EngineError):
            refute_crash_tolerance(baratz_segall_protocol())

    def test_header_theorem_boundary(self):
        # Inside: bounded headers defeated over non-FIFO channels.
        assert refute_bounded_headers(
            sliding_window_protocol(2)
        ).validate()
        # Outside: unbounded headers (Stenning) rejected -- and indeed
        # Stenning is weakly correct over reordering channels (see the
        # correctness tests).
        with pytest.raises(EngineError):
            refute_bounded_headers(stenning_protocol())

    def test_crash_engine_handles_stenning(self):
        # Theorem 7.5 has no header hypothesis: Stenning falls too.
        assert refute_crash_tolerance(stenning_protocol()).validate()


class TestCertificateAudit:
    """Certificates audit cleanly through the independent analyzers."""

    def test_crash_certificate_full_audit(self):
        certificate = refute_crash_tolerance(alternating_bit_protocol())
        report = check_datalink_trace(certificate.behavior)
        violated = {r.name for r in report.violations}
        assert set(certificate.violated) <= violated
        # Assumption-side properties all hold.
        for name in ("DL-well-formed", "DL1", "DL2", "DL3"):
            assert report.holds(name)

    def test_header_certificate_full_audit(self):
        certificate = refute_bounded_headers(alternating_bit_protocol())
        report = check_datalink_trace(certificate.behavior)
        assert not report.holds("DL4") or not report.holds("DL5")
        for name in ("DL-well-formed", "DL1", "DL2", "DL3"):
            assert report.holds(name)


class TestSection9Contrast:
    """Unbounded headers are the price of reordering tolerance."""

    def test_header_growth_contrast(self):
        stenning_series = measure_header_growth(
            stenning_protocol(), checkpoints=(2, 4, 8)
        )
        window_series = measure_header_growth(
            sliding_window_protocol(2), checkpoints=(2, 4, 8)
        )
        assert stenning_series.slope_estimate() >= 1.0
        assert window_series.slope_estimate() < 0.5
        assert window_series.is_bounded()
        assert not stenning_series.is_bounded()


@st.composite
def adversary_delivery_sets(draw):
    """Monotone delivery sets: arbitrary FIFO loss patterns."""
    survivors = draw(
        st.lists(st.integers(1, 60), unique=True, max_size=30)
    )
    prefix = tuple(sorted(survivors))
    floor = max(prefix) if prefix else 0
    return DeliverySet(prefix, max(0, floor - len(prefix)))


class TestAdversarialChannels:
    """Property-based: protocol safety over arbitrary FIFO adversaries."""

    @given(adversary_delivery_sets(), adversary_delivery_sets())
    @settings(max_examples=25, deadline=None)
    def test_sliding_window_safe_under_any_fifo_adversary(
        self, forward, backward
    ):
        system = fifo_system(sliding_window_protocol(2)).started(
            PermissiveChannelState(delivery=forward),
            PermissiveChannelState(delivery=backward),
        )
        factory = MessageFactory()
        messages = factory.fresh_many(4)
        fragment = system.run_fair(
            system.initial_state(),
            inputs=[system.wake_t(), system.wake_r()]
            + [system.send(m) for m in messages],
            max_steps=50_000,
        )
        behavior = system.behavior(fragment)
        report = check_datalink_trace(behavior, quiescent=True)
        # Safety always; liveness too, since the adversarial prefix is
        # finite and the tail is loss-free FIFO.
        assert report.holds("DL4")
        assert report.holds("DL5")
        assert report.holds("DL6")
        assert report.holds("DL8")

    @given(adversary_delivery_sets(), adversary_delivery_sets())
    @settings(max_examples=25, deadline=None)
    def test_stenning_safe_under_any_fifo_adversary(
        self, forward, backward
    ):
        system = fifo_system(stenning_protocol()).started(
            PermissiveChannelState(delivery=forward),
            PermissiveChannelState(delivery=backward),
        )
        factory = MessageFactory()
        messages = factory.fresh_many(3)
        fragment = system.run_fair(
            system.initial_state(),
            inputs=[system.wake_t(), system.wake_r()]
            + [system.send(m) for m in messages],
            max_steps=50_000,
        )
        stats = delivery_stats(fragment)
        assert stats.delivered == 3 and stats.duplicates == 0

"""Tests for the exhaustive bounded model checker (experiment E9)."""

from __future__ import annotations

import pytest

from repro.alphabets import MessageFactory
from repro.analysis import verify_delivery_order
from repro.analysis.model_check import EnvState, ScriptedEnvironment
from repro.channels import NondetLossyFifoChannel, send_pkt, receive_pkt
from repro.alphabets import Packet
from repro.protocols import (
    alternating_bit_protocol,
    baratz_segall_protocol,
    direct_protocol,
    eager_protocol,
    fragmenting_protocol,
    sliding_window_protocol,
    stenning_protocol,
)


class TestNondetChannel:
    def setup_method(self):
        self.channel = NondetLossyFifoChannel("t", "r", capacity=2)
        self.p1 = Packet("a", (), None)
        self.p2 = Packet("b", (), None)

    def test_fifo_delivery(self):
        state = self.channel.step(
            self.channel.initial_state(), send_pkt("t", "r", self.p1)
        )
        state = self.channel.step(state, send_pkt("t", "r", self.p2))
        enabled = list(self.channel.enabled_local_actions(state))
        delivers = [a for a in enabled if a.name == "receive_pkt"]
        assert [a.payload for a in delivers] == [self.p1]  # head only

    def test_loss_of_any_position(self):
        state = self.channel.step(
            self.channel.initial_state(), send_pkt("t", "r", self.p1)
        )
        state = self.channel.step(state, send_pkt("t", "r", self.p2))
        enabled = list(self.channel.enabled_local_actions(state))
        losses = [a for a in enabled if a.name == "lose"]
        assert {a.payload for a in losses} == {0, 1}
        dropped = self.channel.step(state, losses[0])
        assert len(dropped) == 1

    def test_capacity_drops_overflow(self):
        state = self.channel.initial_state()
        for packet in (self.p1, self.p2, Packet("c", (), None)):
            state = self.channel.step(state, send_pkt("t", "r", packet))
        assert len(state) == 2  # third send lost at the full buffer

    def test_wrong_head_not_deliverable(self):
        state = self.channel.step(
            self.channel.initial_state(), send_pkt("t", "r", self.p1)
        )
        assert (
            self.channel.transitions(state, receive_pkt("t", "r", self.p2))
            == ()
        )


class TestScriptedEnvironment:
    def test_wake_then_send_order(self):
        factory = MessageFactory()
        batch = factory.fresh_many(2)
        env = ScriptedEnvironment("t", "r", batch)
        state = env.initial_state()
        enabled = {a.name for a in env.enabled_local_actions(state)}
        assert enabled == {"wake"}
        state = EnvState(True, True, 0, ())
        (action,) = list(env.enabled_local_actions(state))
        assert action.name == "send_msg" and action.payload == batch[0]

    def test_records_deliveries(self):
        factory = MessageFactory()
        batch = factory.fresh_many(1)
        env = ScriptedEnvironment("t", "r", batch)
        from repro.datalink import receive_msg

        state = env.step(env.initial_state(), receive_msg("t", "r", batch[0]))
        assert state.delivered == (batch[0],)


class TestExhaustiveVerification:
    """E9: full state-space proofs at small bounds."""

    @pytest.mark.parametrize(
        "factory,messages,capacity",
        [
            (alternating_bit_protocol, 2, 2),
            (stenning_protocol, 2, 2),
            (
                lambda: fragmenting_protocol(chunk=1, max_fragments=2),
                2,
                2,
            ),
        ],
    )
    def test_correct_protocols_verified(self, factory, messages, capacity):
        result = verify_delivery_order(
            factory(), messages=messages, capacity=capacity
        )
        assert result.ok
        assert result.exhaustive
        assert result.states_explored > 100

    def test_sliding_window_verified(self):
        result = verify_delivery_order(
            sliding_window_protocol(2), messages=2, capacity=2
        )
        assert result.ok and result.exhaustive

    def test_baratz_segall_verified_small(self):
        result = verify_delivery_order(
            baratz_segall_protocol(True), messages=1, capacity=2
        )
        assert result.ok and result.exhaustive

    def test_eager_counterexample_found(self):
        result = verify_delivery_order(
            eager_protocol(), messages=1, capacity=2
        )
        assert not result.ok
        # The counterexample is a concrete action trace ending in the
        # second (duplicate) delivery.
        assert result.counterexample[-1].name == "receive_msg"

    def test_direct_counterexample_found(self):
        # Fire-and-forget: lose the first message, deliver the second --
        # the delivered sequence is not a prefix of the sent one.
        result = verify_delivery_order(
            direct_protocol(), messages=2, capacity=2
        )
        assert not result.ok

    def test_counterexample_is_short(self):
        result = verify_delivery_order(
            eager_protocol(), messages=1, capacity=2
        )
        # BFS exploration returns a minimal-depth violation.
        assert len(result.counterexample) <= 12


class TestReorderingBoundary:
    """Footnote 1, exhaustively: bounded displacement vs. header modulus.

    With reordering displacement bounded, bounded headers become
    possible again -- the complement of Theorem 8.5's *arbitrary*
    reordering hypothesis.  These are full state-space results at the
    stated bounds, not samples.
    """

    def test_abp_safe_at_fifo_depth(self):
        result = verify_delivery_order(
            alternating_bit_protocol(),
            messages=2,
            capacity=3,
            reorder_depth=1,
        )
        assert result.ok and result.exhaustive

    def test_abp_breaks_at_depth_two(self):
        result = verify_delivery_order(
            alternating_bit_protocol(),
            messages=2,
            capacity=3,
            reorder_depth=2,
        )
        assert not result.ok
        assert result.counterexample[-1].name == "receive_msg"

    def test_larger_modulus_tolerates_depth_two(self):
        from repro.protocols import modulo_stenning_protocol

        result = verify_delivery_order(
            modulo_stenning_protocol(4),
            messages=2,
            capacity=3,
            reorder_depth=2,
        )
        assert result.ok and result.exhaustive

    def test_unbounded_headers_tolerate_depth_three(self):
        result = verify_delivery_order(
            stenning_protocol(), messages=2, capacity=3, reorder_depth=3
        )
        assert result.ok and result.exhaustive

    def test_depth_validation(self):
        from repro.channels import NondetLossyFifoChannel

        with pytest.raises(ValueError):
            NondetLossyFifoChannel("t", "r", reorder_depth=0)


def _fail_load():
    from repro.ioa.engine.accel import AccelUnavailable

    raise AccelUnavailable("forced load failure")


class TestFallbackVisible:
    """A degraded compiled core shows up in the verify report."""

    @pytest.mark.parametrize("reorder_depth", [1, 2])
    def test_degraded_run_reports_its_fallback(
        self, monkeypatch, reorder_depth
    ):
        from repro.ioa.engine import accel

        monkeypatch.delenv("REPRO_ACCEL_REQUIRE", raising=False)
        undegraded = verify_delivery_order(
            alternating_bit_protocol(), reorder_depth=reorder_depth
        )
        monkeypatch.setattr(accel, "_load_module", _fail_load)
        degraded = verify_delivery_order(
            alternating_bit_protocol(), reorder_depth=reorder_depth
        )
        assert degraded.ok == undegraded.ok == (reorder_depth == 1)
        assert degraded.states_explored == undegraded.states_explored
        assert degraded.exhaustive == undegraded.exhaustive
        assert degraded.counterexample == undegraded.counterexample
        assert degraded.fallback == "forced load failure"
        details = degraded.report().details
        assert details["fallback"] == "forced load failure"

    def test_cli_json_shows_fallback_only_when_degraded(
        self, monkeypatch, capsys
    ):
        import json

        from repro.cli import main
        from repro.ioa.engine import accel

        monkeypatch.delenv("REPRO_ACCEL_REQUIRE", raising=False)
        if accel.accel_backend_id() is not None:
            assert main(["verify", "abp", "--json"]) == 0
            clean = json.loads(capsys.readouterr().out)
            assert "fallback" not in clean["details"]
        monkeypatch.setattr(accel, "_load_module", _fail_load)
        assert main(["verify", "abp", "--json"]) == 0
        degraded = json.loads(capsys.readouterr().out)
        assert degraded["details"]["fallback"] == "forced load failure"

"""Tests for refinement mappings and the reliable-link proofs."""

from __future__ import annotations

import pytest

from repro.alphabets import Message
from repro.analysis import (
    ReliableLinkSpec,
    abp_mapping,
    verify_abp_refinement,
    verify_refinement,
)
from repro.analysis import refinement_proofs
from repro.analysis.refinement_proofs import eager_mapping
from repro.ioa.automaton import with_memo
from repro.datalink import receive_msg, send_msg
from repro.ioa import check_refinement
from repro.protocols import eager_protocol

M1, M2 = Message(1), Message(2)


class TestReliableLinkSpec:
    def setup_method(self):
        self.spec = ReliableLinkSpec()

    def test_send_appends(self):
        state = self.spec.step((), send_msg("t", "r", M1))
        assert state == (M1,)

    def test_receive_pops_head_only(self):
        state = (M1, M2)
        assert self.spec.transitions(state, receive_msg("t", "r", M1))
        assert not self.spec.transitions(state, receive_msg("t", "r", M2))

    def test_enabled_delivery_is_head(self):
        (action,) = list(self.spec.enabled_local_actions((M1, M2)))
        assert action.payload == M1

    def test_empty_queue_quiescent(self):
        assert self.spec.is_quiescent(())


class TestCheckRefinement:
    def test_identity_refines_itself(self):
        spec = ReliableLinkSpec()

        def environment(state):
            if len(state) < 2:
                return [send_msg("t", "r", Message(len(state) + 10))]
            return []

        result = check_refinement(
            spec, ReliableLinkSpec(), lambda s: s, environment=environment
        )
        assert result.holds and result.exhaustive

    def test_wrong_start_mapping_rejected(self):
        spec = ReliableLinkSpec()
        result = check_refinement(spec, ReliableLinkSpec(), lambda s: (M1,))
        assert not result.holds
        assert "start state" in result.failure


class TestAbpRefinement:
    """The structural proof that ABP solves the reliable link."""

    def test_abp_refines_reliable_link(self):
        result = verify_abp_refinement(messages=2, capacity=2)
        assert result.holds
        assert result.exhaustive
        assert result.states_checked > 500

    def test_abp_refines_at_larger_bounds(self):
        result = verify_abp_refinement(messages=3, capacity=2)
        assert result.holds and result.exhaustive

    def test_mapping_shape(self):
        # Spot-check the mapping on a hand-built composed state.
        from repro.datalink.protocol import HostState
        from repro.protocols.alternating_bit import (
            AbpReceiverCore,
            AbpTransmitterCore,
        )

        tx = HostState(AbpTransmitterCore(bit=0, queue=(M1, M2)))
        # Receiver accepted M1 (expected flipped) but tx not yet acked.
        rx = HostState(AbpReceiverCore(expected=1, inbox=(M1,)))
        state = (tx, rx, (), (), None)
        assert abp_mapping(state) == (M1, M2)

    def test_eager_fails_refinement(self):
        result = verify_refinement(
            eager_protocol(), eager_mapping, messages=1, capacity=2
        )
        assert not result.holds
        assert result.failing_trace
        assert "not a specification step" in result.failure


class TestSliceTables:
    """The refinement walk steps through ``Composition.transitions`` and
    ``enabled_local_actions``, which answer from the components' slice
    tables; the tables may change nothing it concludes."""

    PROOFS = {
        "abp": lambda: verify_abp_refinement(messages=2, capacity=2),
        "eager": lambda: verify_refinement(
            eager_protocol(), eager_mapping, messages=1, capacity=2
        ),
    }

    @pytest.mark.parametrize("proof", sorted(PROOFS))
    def test_same_result_with_and_without_tables(self, monkeypatch, proof):
        tables = []

        def recorded(component):
            tables.append(with_memo(component).table)
            return component

        monkeypatch.setattr(refinement_proofs, "with_memo", recorded)
        tabled = self.PROOFS[proof]()
        assert len(tables) == 5 and all(len(table) for table in tables)
        monkeypatch.setattr(refinement_proofs, "with_memo", lambda c: c)
        untabled = self.PROOFS[proof]()
        assert untabled == tabled
        assert tabled.holds == (proof == "abp")

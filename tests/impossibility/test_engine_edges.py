"""Edge paths of the impossibility engines.

The engines must fail *informatively* on protocols violating the
hypotheses they cannot verify up front: protocols that never quiesce,
never deliver, or sneak message-dependence past the empirical checker.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Tuple

import pytest

from repro.alphabets import Message, Packet
from repro.datalink import DataLinkProtocol, TransmitterLogic
from repro.datalink.message_independence import equivalent
from repro.impossibility import (
    LIVENESS,
    EngineError,
    ViolationCertificate,
    refute_bounded_headers,
    refute_crash_tolerance,
)
from repro.impossibility import header_engine
from repro.impossibility.crash_engine import CrashImpossibilityEngine
from repro.protocols import alternating_bit_protocol, modulo_stenning_protocol
from repro.protocols.naive import DirectReceiver, _WakeMixin


@dataclass(frozen=True)
class _Core:
    queue: Tuple[Message, ...] = ()
    awake: bool = False


class MuteTransmitter(_WakeMixin, TransmitterLogic):
    """Accepts messages and never sends a single packet."""

    def initial_core(self):
        return _Core()

    def on_send_msg(self, core, message):
        return replace(core, queue=core.queue + (message,))

    def on_packet(self, core, packet):
        return core

    def enabled_sends(self, core) -> Iterable[Packet]:
        return ()

    def after_send(self, core, packet):
        return core

    def header_space(self):
        return frozenset()


class BabblingTransmitter(MuteTransmitter):
    """Sends a heartbeat forever: the composition never quiesces."""

    def enabled_sends(self, core) -> Iterable[Packet]:
        if core.awake:
            yield Packet("HEARTBEAT")

    def header_space(self):
        return frozenset({"HEARTBEAT"})


def mute_protocol() -> DataLinkProtocol:
    return DataLinkProtocol(
        name="mute",
        transmitter_factory=MuteTransmitter,
        receiver_factory=DirectReceiver,
        description="never transmits anything",
    )


def babbling_protocol() -> DataLinkProtocol:
    return DataLinkProtocol(
        name="babbling",
        transmitter_factory=BabblingTransmitter,
        receiver_factory=DirectReceiver,
        description="transmits heartbeats forever",
    )


class TestCrashEngineEdges:
    def test_mute_protocol_yields_liveness_certificate(self):
        """A protocol that cannot deliver even over ideal channels is
        refuted at the reference-execution phase."""
        certificate = refute_crash_tolerance(mute_protocol())
        assert certificate.kind == LIVENESS
        assert certificate.validate()
        # No pumping was needed.
        assert "pump_levels" not in certificate.stats

    def test_babbling_protocol_rejected_informatively(self):
        with pytest.raises(EngineError, match="does not quiesce"):
            refute_crash_tolerance(babbling_protocol(), max_steps=5_000)


class TestHeaderEngineEdges:
    def test_mute_protocol_rejected(self):
        """The probe cannot find any delivery: the protocol is not
        k-bounded for any k (and not weakly correct)."""
        with pytest.raises(EngineError, match="DL8|k-bounded"):
            refute_bounded_headers(mute_protocol(), max_steps=5_000)

    def test_babbling_protocol_rejected(self):
        with pytest.raises(EngineError):
            refute_bounded_headers(babbling_protocol(), max_steps=5_000)


class TestSharedConstructionCore:
    """Paths both engines take through the shared construction core."""

    @pytest.mark.parametrize(
        "refute,factory",
        [
            # The reference-phase (DL8) certificate of Theorem 7.5.
            (refute_crash_tolerance, mute_protocol),
            (refute_crash_tolerance, alternating_bit_protocol),
            (refute_bounded_headers, lambda: modulo_stenning_protocol(16)),
        ],
        ids=["crash-reference-dl8", "crash-abp", "headers-mod-stenning-16"],
    )
    def test_every_certificate_is_validated(self, monkeypatch, refute, factory):
        """No certificate leaves an engine without passing ``validate``."""
        monkeypatch.setattr(ViolationCertificate, "validate", lambda self: False)
        with pytest.raises(
            EngineError,
            match=r"^constructed certificate failed independent validation",
        ):
            refute(factory())

    def test_crash_replay_without_equivalent_action(self, monkeypatch):
        """A Lemma 7.2 replay step with no equivalent enabled action
        (messages made inequivalent) raises the shared copy-step error."""
        original = CrashImpossibilityEngine._equiv

        def packets_only(self, value, reference):
            return isinstance(value, Packet) and original(self, value, reference)

        monkeypatch.setattr(CrashImpossibilityEngine, "_equiv", packets_only)
        with pytest.raises(
            EngineError,
            match=r"^message-independence failure in the Lemma 7\.2 replay: "
            r"no action equivalent to receive_msg\^\{t,r\}\(.*\) is enabled at r",
        ):
            refute_crash_tolerance(alternating_bit_protocol())

    def test_receiver_replay_without_equivalent_action(self, monkeypatch):
        """The same copy step fails the Theorem 8.5 receiver replay."""

        def packets_only(value, other):
            return isinstance(value, Packet) and equivalent(value, other)

        monkeypatch.setattr(header_engine, "equivalent", packets_only)
        with pytest.raises(
            EngineError,
            match=r"^message-independence failure in the Theorem 8\.5 "
            r"receiver replay: no action equivalent to "
            r"receive_msg\^\{t,r\}\(.*\) is enabled at r",
        ):
            refute_bounded_headers(modulo_stenning_protocol(16))

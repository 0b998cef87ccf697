"""The bounded-header impossibility construction (paper, Section 8,
Theorem 8.5).

Theorem 8.5: *no weakly correct data link protocol is
message-independent, has bounded headers, and is k-bounded for some k*
-- over arbitrary (non-FIFO) physical channels.

The engine executes the proof against a concrete protocol over the
permissive non-FIFO channels ``C-bar`` (system ``D-bar'(A)``):

1. **Pumping** (Lemmas 8.3 and 8.4).  Maintain a schedule ``beta`` with
   valid behavior and a set ``T`` of packets in transit from t to r.
   Each round sends a fresh message ``m`` and *probes* the delivery
   ``gamma1`` the protocol would use (over cleaned channels, so no
   packet of ``beta`` is re-received -- the k-boundedness witness).  If
   some delivered packet ``p0``'s equivalence class has fewer than ``k``
   representatives in ``T``, ``beta`` takes the probe's own prefix of
   ``gamma1`` through ``send_pkt(p0)``, states and all (not stepped
   again), then loses ``p0`` (clean surgery, Lemma 6.3) and lets the
   protocol finish delivering ``m`` fairly; ``p0`` joins ``T``.  The
   chain ``T <_k T' <_k ...`` has length at most ``k * |headers(A)|``,
   so eventually every class is saturated.

2. **The contradiction** (Theorem 8.5).  When every packet of the
   probed ``packet_set(m, beta)`` has ``k`` equivalents in ``T``, an
   injective class-preserving map ``f`` exists.  The engine schedules
   ``f``'s images as the channel's waiting sequence (Lemma 6.7 --
   the non-FIFO channel can deliver any in-transit packets in any
   order) and replays the *receiver's* part of ``gamma1`` against them:
   by message-independence the receiver behaves equivalently and
   announces ``receive_msg(m')`` for some ``m'`` -- without any
   ``send_msg`` having occurred.  Since ``beta`` is valid, every
   message sent in ``beta`` was already received, so the delivery
   violates (DL4) (if ``m'`` was sent before) or (DL5) (if not).

The certificate's behavior is re-validated independently.  Protocols
with unbounded headers (Stenning) are rejected up front -- they fall
outside the theorem's hypotheses, and indeed escape the construction.

A round costs the same however large ``T`` grows, so the whole
construction is linear in the chain length: packet classes are
computed once per (header, arity) pair, ``T`` is kept in per-class pools
in ``T`` order; and validity is re-checked after every round by a
:class:`~repro.datalink.properties.ValidityMonitor` fed only that round's
events.  The execution under construction, the fair delivery of one
message, the receiver replay's copy step and the certificate's
validation come from the shared construction core
(:mod:`~repro.impossibility.construction`).  Under tracing each step is
a span named for its lemma: ``refute.probe`` (Lemma 8.3),
``refute.inject`` (the map ``f``, Lemma 6.7), ``refute.pump`` (Lemma
8.4) and ``refute.replay`` (Theorem 8.5).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..alphabets import Message, MessageFactory, Packet
from ..ioa.execution import ExecutionFragment
from ..ioa.fairness import FairnessTimeout
from ..channels.actions import RECEIVE_PKT, SEND_PKT
from ..datalink.actions import RECEIVE_MSG, SEND_MSG
from ..datalink.message_independence import equivalent, packet_class
from ..datalink.properties import ValidityMonitor
from ..datalink.protocol import DataLinkProtocol
from ..sim.network import permissive_system
from .certificates import (
    DUPLICATE_DELIVERY,
    UNSENT_DELIVERY,
    EngineError,
    ViolationCertificate,
)
from .construction import Construction


@dataclass
class _TransitEntry:
    """A packet of ``T``: in transit t->r, with its channel send index
    and its equivalence class."""

    channel_index: int
    packet: Packet
    cls: Tuple


@dataclass
class _Probe:
    """Result of probing ``gamma1`` for one fresh message."""

    message: Message
    run: ExecutionFragment  # gamma1, from the cleaned state (and send_msg) on
    received: Tuple[Packet, ...]  # packets received t->r, in order
    classes: Tuple[Tuple, ...]  # their equivalence classes


class BoundedHeaderEngine(Construction):
    """Executable form of the Section 8 construction (see module docs)."""

    theorem = "theorem-8.5"
    span = "refute.headers"

    def __init__(
        self,
        protocol: DataLinkProtocol,
        k: Optional[int] = None,
        max_rounds: Optional[int] = None,
        max_steps: int = 100_000,
        t: str = "t",
        r: str = "r",
        message_size: int = 0,
    ):
        super().__init__(
            protocol, permissive_system(protocol, t, r), max_steps, t, r
        )
        self.declared_k = k
        self.message_size = message_size
        self._receive_key = (RECEIVE_MSG, (t, r))
        self.factory = MessageFactory(label="h")
        header_space = protocol.header_space()
        if header_space is None:
            raise EngineError(
                f"protocol {protocol.name!r} does not have bounded "
                "headers; Theorem 8.5 does not apply (cf. Stenning's "
                "protocol)"
            )
        self.header_count = len(header_space)
        # Packet classes are (header, body-arity in {0,1}) pairs.
        self.class_bound = 2 * self.header_count
        self.max_rounds = max_rounds
        # T, split by equivalence class; each pool keeps T's order.
        self._pools: Dict[Tuple, List[_TransitEntry]] = {}
        # Packet classes by (header, body arity), which determine them.
        self._classes: Dict[Tuple, Tuple] = {}
        # Validity of beta, fed each action once (see _assert_valid).
        self._validity = ValidityMonitor(t, r)
        self._checked = 0

    # ------------------------------------------------------------------

    def _class_of(self, packet: Packet) -> Tuple:
        """``packet_class(packet)``, computed once per header class."""
        cls = self._classes.get(packet.header_class)
        if cls is None:
            cls = self._classes[packet.header_class] = packet_class(packet)
        return cls

    def _assert_valid(self, context: str) -> None:
        """Check that the behavior so far is valid (Section 8.1).

        The monitor keeps its state between checks, so each check feeds
        it only the external actions taken since the last one.
        """
        signature = self.system.automaton.signature
        # Off the record's lists: a growing record is never frozen.
        actions = self._record.tip()[1]
        self._validity.feed(
            a for a in actions[self._checked :] if signature.is_external(a)
        )
        self._checked = len(actions)
        result = self._validity.result()
        if not result.holds:
            raise EngineError(
                f"behavior stopped being valid {context}: {result.witness}"
            )

    # ------------------------------------------------------------------
    # The k-boundedness probe (Section 8.1)
    # ------------------------------------------------------------------

    def _probe_delivery(self, message: Message) -> _Probe:
        """Find ``gamma1``: a delivery of ``message`` continuing ``beta``.

        Probes on a branch: cleans both channels (a legal continuation,
        Lemma 6.3, which also guarantees no packet of ``beta`` can be
        re-received) and runs fairly until ``receive_msg(message)``.
        The main fragment is not modified.
        """
        system = self.system
        branch, delivered = self._deliver(
            ExecutionFragment.initial(
                system.clean_channels(self._final_state)
            ),
            message,
            [system.send(message)],
            f"probe for {message} did not quiesce; the protocol is not "
            "k-bounded for any usable k",
        )
        if not delivered:
            raise EngineError(
                f"probe quiesced without delivering {message}: the "
                "protocol violates (DL8) over the permissive channel"
            )
        received = tuple(
            a.payload
            for a in branch.actions
            if a.key == (RECEIVE_PKT, (self.t, self.r))
        )
        return _Probe(
            message,
            branch,
            received,
            tuple(self._class_of(p) for p in received),
        )

    # ------------------------------------------------------------------
    # Lemma 8.3 case 2: extend beta, adding one packet to T
    # ------------------------------------------------------------------

    def _pump_round(self, probe: _Probe, p0: Packet) -> _TransitEntry:
        """Execute ``rho`` (the prefix of gamma1 through ``send_pkt(p0)``),
        lose ``p0``, and let the delivery finish fairly (``rho-hat``).

        The system is deterministic and the probe ran gamma1 from
        ``beta``'s cleaned final state, so ``rho`` is the probe's own
        prefix, states included: it is not stepped again.
        """
        system = self.system
        send_key = (SEND_PKT, (self.t, self.r))
        rho_had_receive = False
        gamma1 = probe.run
        for j, action in enumerate(gamma1.actions):
            if action.key == self._receive_key:
                rho_had_receive = True
            if action.key == send_key and action.payload == p0:
                break
        else:
            raise EngineError(
                f"send_pkt({p0}) not found in the probed gamma1"
            )
        # beta's final state becomes the cleaned one the probe began at.
        self._surgery(gamma1.first_state)
        states, actions = self._record.tip()
        states.extend(gamma1.states[1 : j + 2])
        actions.extend(gamma1.actions[: j + 1])
        self._record.grown()
        entry = _TransitEntry(
            system.channel_state(self._final_state, self.t).counter1,
            p0,
            self._class_of(p0),
        )

        if not rho_had_receive:
            # Lemma 6.3: lose everything in transit t->r (including p0),
            # then finish the delivery fairly (rho-hat).
            self._surgery(system.clean_channel(self._final_state, self.t))
            self._record, delivered = self._deliver(
                self._record,
                probe.message,
                (),
                "rho-hat did not quiesce while finishing the delivery "
                f"of {probe.message}",
            )
            if not delivered:
                raise EngineError(
                    f"(DL8) failure during pumping: {probe.message} was "
                    "never delivered after losing p0 -- the protocol is "
                    "not weakly correct over the permissive channel"
                )
        return entry

    # ------------------------------------------------------------------
    # Theorem 8.5: the receiver replay against T
    # ------------------------------------------------------------------

    def _build_injection(
        self, probe: _Probe
    ) -> Optional[List[_TransitEntry]]:
        """The map ``f``: probed received packets -> distinct T entries.

        Returns one entry per received packet (in receive order), class
        preserving and injective, or None if some class is not yet
        saturated.  Each packet maps to the earliest unused T entry of
        its class.
        """
        taken: Dict[Tuple, int] = {}
        chosen: List[_TransitEntry] = []
        for cls in probe.classes:
            pool = self._pools.get(cls, ())
            used = taken.get(cls, 0)
            if used == len(pool):
                return None
            chosen.append(pool[used])
            taken[cls] = used + 1
        return chosen

    def _inject(self, images: Sequence[_TransitEntry]) -> None:
        """Lemma 6.7: schedule ``f``'s images as the waiting sequence of
        the non-FIFO channel t->r."""
        indices = [entry.channel_index for entry in images]
        self._surgery(self.system.set_waiting(self._final_state, self.t, indices))

    def _replay_receiver(
        self, probe: _Probe, images: Sequence[_TransitEntry]
    ) -> None:
        """Replay ``gamma1 | A^r`` against the packets of ``T``.

        With the ``f``-images waiting in the channel (:meth:`_inject`),
        mirrors each receiver step of the probe with an equivalent step,
        as in the Theorem 8.5 induction (Lemma 6.4 keeps the waiting
        packets deliverable).
        """
        receiver_signature = self.system.receiver.signature
        scheduled = iter(images)
        for action in probe.run.actions:
            if not receiver_signature.contains(action):
                continue
            step = self._mirror(
                action, equivalent, "Theorem 8.5 receiver replay"
            )
            if step.name == RECEIVE_PKT:
                image = next(scheduled)
                if step.payload != image.packet:
                    raise EngineError(
                        "channel did not offer the scheduled T-packet "
                        f"{image.packet}"
                    )
            self._step(step)

    # ------------------------------------------------------------------
    # Main entry point
    # ------------------------------------------------------------------

    def _run(self, tracer) -> ViolationCertificate:
        self._begin()
        k = 1 if self.declared_k is None else self.declared_k
        rounds = 0
        while True:
            limit = self.max_rounds or (k * self.class_bound + 2)
            if rounds > limit:
                raise EngineError(
                    f"pumping exceeded {limit} rounds without saturating "
                    "the header classes; the protocol appears not to be "
                    f"{k}-bounded with bounded headers"
                )
            # Each pumping round adds one packet to T: |T| = rounds.
            with tracer.span("refute.round", round=rounds, transit=rounds):
                message = self.factory.fresh(self.message_size)
                with tracer.span("refute.probe"):
                    probe = self._probe_delivery(message)
                if tracer.enabled:
                    tracer.count("refute.probes")
                    tracer.gauge("refute.transit_packets", rounds)
                observed = len(probe.received)
                if self.declared_k is None and observed > k:
                    k = observed  # adaptive k: the largest packet_set seen
                elif observed > k:
                    raise EngineError(
                        f"protocol used {observed} packets to deliver "
                        f"{message}, exceeding the declared k={k}"
                    )
                with tracer.span("refute.inject"):
                    images = self._build_injection(probe)
                    if images is not None:
                        self._inject(images)
                if images is not None:
                    break
                # Case 2 of Lemma 8.3: grow T by one under-represented
                # packet.
                with tracer.span("refute.pump"):
                    p0 = next(
                        p
                        for p, cls in zip(probe.received, probe.classes)
                        if len(self._pools.get(cls, ())) < k
                    )
                    entry = self._pump_round(probe, p0)
                    self._pools.setdefault(entry.cls, []).append(entry)
                    rounds += 1
                    if tracer.enabled:
                        tracer.count("refute.pump_rounds")
                    self._assert_valid(f"after pumping round {rounds}")
                self.narrative.append(
                    f"round {rounds}: delivered {message} while keeping a "
                    f"{entry.cls[0]!r} packet in transit "
                    f"(|T| = {rounds})"
                )

        self.stats["pump_rounds"] = rounds
        self.stats["transit_packets"] = rounds
        self.stats["k"] = k
        self.narrative.append(
            f"after {rounds} pumping rounds, T holds "
            f"{rounds} packets saturating every class of "
            f"packet_set({message}); replaying the receiver "
            "against T (Theorem 8.5)"
        )
        with tracer.span("refute.replay"):
            self._replay_receiver(probe, images)
            # Fair extension with no inputs, then classify.
            try:
                self._extend_fairly()
            except FairnessTimeout:
                pass  # safety violation below persists on any extension
        behavior = self._behavior()
        deliveries = [
            a for a in behavior if a.key == self._receive_key
        ]
        sends = {
            a.payload for a in behavior if a.key == (SEND_MSG, (self.t, self.r))
        }
        phantom = [a.payload for a in deliveries if a.payload not in sends]
        self.narrative.append(
            "receiver replay announced a delivery with no send_msg "
            "pending: " + ("(DL5) violated" if phantom else "(DL4) violated")
        )
        if phantom:
            return self._certify(UNSENT_DELIVERY, behavior, ("DL5",))
        return self._certify(DUPLICATE_DELIVERY, behavior, ("DL4",))


def refute_bounded_headers(
    protocol: DataLinkProtocol,
    k: Optional[int] = None,
    max_steps: int = 100_000,
    message_size: int = 0,
) -> ViolationCertificate:
    """Run the Theorem 8.5 construction against ``protocol``.

    The protocol must be message-independent, k-bounded and have bounded
    headers; unbounded-header protocols are rejected with
    :class:`~repro.impossibility.certificates.EngineError`.
    """
    return BoundedHeaderEngine(
        protocol, k=k, max_steps=max_steps, message_size=message_size
    ).run()

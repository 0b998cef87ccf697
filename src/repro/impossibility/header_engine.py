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
in ``T`` order; validity is re-checked after every round by a
:class:`~repro.datalink.properties.ValidityMonitor` fed only that round's
events; and the execution grows as two lists, made a fragment once at
the end.  Under tracing each step is a span named for its lemma:
``refute.probe`` (Lemma 8.3), ``refute.inject`` (the map ``f``, Lemma
6.7), ``refute.pump`` (Lemma 8.4) and ``refute.replay`` (Theorem 8.5).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..alphabets import Message, MessageFactory, Packet
from ..ioa.actions import Action
from ..ioa.execution import ExecutionFragment
from ..ioa.fairness import FairnessTimeout
from ..channels.actions import RECEIVE_PKT, SEND_PKT, receive_pkt
from ..datalink.actions import RECEIVE_MSG, SEND_MSG
from ..datalink.message_independence import equivalent, packet_class
from ..datalink.properties import ValidityMonitor
from ..datalink.protocol import DataLinkProtocol
from ..obs import current_tracer
from ..sim.network import DataLinkSystem, permissive_system
from .certificates import (
    DUPLICATE_DELIVERY,
    UNSENT_DELIVERY,
    EngineError,
    ViolationCertificate,
)


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
    states: Tuple  # gamma1's states, from the cleaned state on
    actions: Tuple[Action, ...]  # the full gamma1 schedule (from send_msg)
    received: Tuple[Packet, ...]  # packets received t->r, in order
    classes: Tuple[Tuple, ...]  # their equivalence classes


class BoundedHeaderEngine:
    """Executable form of the Section 8 construction (see module docs)."""

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
        self.protocol = protocol
        self.declared_k = k
        self.message_size = message_size
        self.max_steps = max_steps
        self.t = t
        self.r = r
        self._receive_key = (RECEIVE_MSG, (t, r))
        self.system: DataLinkSystem = permissive_system(protocol, t, r)
        self.factory = MessageFactory(label="h")
        self.narrative: List[str] = []
        self.stats: Dict[str, int] = {}
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
        # The execution built so far, as growing lists: the fragment is
        # built once, at the end, so a step costs the same at any length.
        self._states: List = []
        self._actions: List[Action] = []
        # T, split by equivalence class; each pool keeps T's order.
        self._pools: Dict[Tuple, List[_TransitEntry]] = {}
        # Packet classes by (header, body arity), which determine them.
        self._classes: Dict[Tuple, Tuple] = {}
        # Validity of beta, fed each action once (see _assert_valid).
        self._validity = ValidityMonitor(t, r)
        self._checked = 0

    # ------------------------------------------------------------------

    @property
    def _final_state(self):
        return self._states[-1]

    def _step(self, action: Action) -> None:
        self._states.append(
            self.system.automaton.step(self._states[-1], action)
        )
        self._actions.append(action)

    def _class_of(self, packet: Packet) -> Tuple:
        """``packet_class(packet)``, computed once per header class."""
        cls = self._classes.get(packet.header_class)
        if cls is None:
            cls = self._classes[packet.header_class] = packet_class(packet)
        return cls

    def _extend(self, fragment: ExecutionFragment) -> None:
        """Append ``fragment``, which starts at the final state."""
        self._states.extend(fragment.states[1:])
        self._actions.extend(fragment.actions)

    def _deliver(
        self, state, message: Message, inputs, timeout: str, lost: str
    ) -> ExecutionFragment:
        """Run fairly from ``state`` until ``receive_msg(message)``,
        raising ``EngineError(timeout)`` if the run does not quiesce and
        ``EngineError(lost)`` if it quiesces without that delivery."""
        key = self._receive_key
        try:
            run = self.system.run_fair(
                state,
                inputs=inputs,
                max_steps=self.max_steps,
                stop_when=lambda a: a.key == key and a.payload == message,
            )
        except FairnessTimeout as exc:
            raise EngineError(timeout) from exc
        last = run.actions[-1] if run.actions else None
        if last is None or last.key != key or last.payload != message:
            raise EngineError(lost)
        return run

    def _assert_valid(self, context: str) -> None:
        """Check that the behavior so far is valid (Section 8.1).

        The monitor keeps its state between checks, so each check feeds
        it only the external actions taken since the last one.
        """
        signature = self.system.automaton.signature
        self._validity.feed(
            a
            for a in self._actions[self._checked :]
            if signature.is_external(a)
        )
        self._checked = len(self._actions)
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
        branch = self._deliver(
            system.clean_channels(self._final_state),
            message,
            [system.send(message)],
            f"probe for {message} did not quiesce; the protocol is not "
            "k-bounded for any usable k",
            f"probe quiesced without delivering {message}: the protocol "
            "violates (DL8) over the permissive channel",
        )
        received = tuple(
            a.payload
            for a in branch.actions
            if a.key == (RECEIVE_PKT, (self.t, self.r))
        )
        return _Probe(
            message,
            branch.states,
            branch.actions,
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
        for j, action in enumerate(probe.actions):
            if action.key == self._receive_key:
                rho_had_receive = True
            if action.key == send_key and action.payload == p0:
                break
        else:
            raise EngineError(
                f"send_pkt({p0}) not found in the probed gamma1"
            )
        # beta's final state becomes the cleaned one the probe began at.
        self._states[-1:] = probe.states[: j + 2]
        self._actions.extend(probe.actions[: j + 1])
        entry = _TransitEntry(
            system.channel_state(self._final_state, self.t).counter1,
            p0,
            self._class_of(p0),
        )

        if not rho_had_receive:
            # Lemma 6.3: lose everything in transit t->r (including p0),
            # then finish the delivery fairly (rho-hat).
            self._states[-1] = system.clean_channel(self._final_state, self.t)
            self._extend(
                self._deliver(
                    self._final_state,
                    probe.message,
                    (),
                    "rho-hat did not quiesce while finishing the delivery "
                    f"of {probe.message}",
                    f"(DL8) failure during pumping: {probe.message} was "
                    "never delivered after losing p0 -- the protocol is "
                    "not weakly correct over the permissive channel",
                )
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
        self._states[-1] = self.system.set_waiting(
            self._final_state, self.t, [entry.channel_index for entry in images]
        )

    def _replay_receiver(
        self, probe: _Probe, images: Sequence[_TransitEntry]
    ) -> None:
        """Replay ``gamma1 | A^r`` against the packets of ``T``.

        With the ``f``-images waiting in the channel (:meth:`_inject`),
        mirrors each receiver step of the probe with an equivalent step,
        as in the Theorem 8.5 induction (Lemma 6.4 keeps the waiting
        packets deliverable).
        """
        system = self.system
        receiver = system.receiver
        cursor = 0
        receiver_signature = receiver.signature
        for action in probe.actions:
            if not receiver_signature.contains(action):
                continue
            if action.key == (RECEIVE_PKT, (self.t, self.r)):
                image = images[cursor]
                cursor += 1
                channel_state = system.channel_state(
                    self._final_state, self.t
                )
                deliverable = channel_state.deliverable()
                if deliverable is None or deliverable[1] != image.packet:
                    raise EngineError(
                        "channel did not offer the scheduled T-packet "
                        f"{image.packet}"
                    )
                if not equivalent(image.packet, action.payload):
                    raise EngineError(
                        f"T-packet {image.packet} is not equivalent to "
                        f"the probed packet {action.payload}"
                    )
                self._step(
                    receive_pkt(self.t, self.r, image.packet)
                )
            elif action.key[0] in (SEND_PKT, RECEIVE_MSG):
                host = system.host_state(self._final_state, self.r)
                candidates = [
                    a
                    for a in receiver.enabled_local_actions(host)
                    if a.key == action.key
                    and equivalent(a.payload, action.payload)
                ]
                if not candidates:
                    raise EngineError(
                        "message-independence failure in the receiver "
                        f"replay: no action equivalent to {action} enabled"
                    )
                self._step(candidates[0])
            else:
                raise EngineError(
                    f"unexpected receiver action {action} in gamma1"
                )

    # ------------------------------------------------------------------
    # Main entry point
    # ------------------------------------------------------------------

    def run(self) -> ViolationCertificate:
        """Execute the Theorem 8.5 construction; returns the certificate."""
        tracer = current_tracer()
        with tracer.span(
            "refute.headers", protocol=self.protocol.name
        ):
            return self._run(tracer)

    def _run(self, tracer) -> ViolationCertificate:
        system = self.system
        start = system.run_inputs(
            system.initial_state(), [system.wake_t(), system.wake_r()]
        )
        self._states = list(start.states)
        self._actions = list(start.actions)
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
                self._extend(
                    system.run_fair(
                        self._final_state, max_steps=self.max_steps
                    )
                )
            except FairnessTimeout:
                pass  # safety violation below persists on any extension
        behavior = system.behavior(
            ExecutionFragment(tuple(self._states), tuple(self._actions))
        )
        deliveries = [
            a for a in behavior if a.key == self._receive_key
        ]
        sends = {
            a.payload for a in behavior if a.key == (SEND_MSG, (self.t, self.r))
        }
        phantom = [a.payload for a in deliveries if a.payload not in sends]
        kind = UNSENT_DELIVERY if phantom else DUPLICATE_DELIVERY
        violated = ("DL5",) if phantom else ("DL4",)
        self.narrative.append(
            "receiver replay announced a delivery with no send_msg "
            "pending: " + ("(DL5) violated" if phantom else "(DL4) violated")
        )
        certificate = ViolationCertificate(
            protocol_name=self.protocol.name,
            theorem="theorem-8.5",
            kind=kind,
            behavior=behavior,
            violated=violated,
            narrative=tuple(self.narrative),
            stats=dict(self.stats),
            t=self.t,
            r=self.r,
        )
        if not certificate.validate():
            raise EngineError(
                "constructed certificate failed independent validation; "
                "this indicates an engine bug:\n" + certificate.describe()
            )
        return certificate


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

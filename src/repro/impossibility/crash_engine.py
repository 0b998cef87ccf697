"""The crash-impossibility construction (paper, Section 7, Theorem 7.5).

Theorem 7.5: *no data link protocol that is message-independent and
crashing is weakly correct with respect to FIFO physical channels.*

The proof is effective, and this engine executes it against any concrete
protocol satisfying the hypotheses.  Given the protocol it builds the
composed system ``D-hat'(A)`` (protocol + permissive FIFO channels,
packet actions hidden) and then:

1. **Reference execution** ``alpha`` (Lemma 4.1): wake both stations,
   send one message ``m0``, run fairly until ``receive_msg(m0)``, then
   leave both channels clean (Lemma 6.3 surgery).

2. **Pumping** (Lemmas 7.2 and 7.3): walks the alternation chain of
   ``alpha`` backwards to find the levels ``(x_0,k_0), (x_1,k_1), ...``
   and then replays forward: at each level it crashes station ``x_i``
   and replays that station's first ``k_i`` reference steps against the
   live automaton, feeding it the equivalent packets left waiting in the
   channel by the previous level (Lemma 6.6 surgery selects exactly the
   packets the reference station consumed) and fresh messages in place
   of reference messages.  Each replayed step is checked for
   message-independence: the engine asserts an equivalent action is
   enabled and that the post-state is equivalent to the reference state.

3. **Lemma 7.4 end state**: after the final level (a full replay of the
   transmitter's reference steps, ending with ``send_msg(m1)`` for a
   fresh ``m1``), both channels are cleaned.  The constructed schedule
   ``beta`` leaves both stations in states equivalent to the end of
   ``alpha`` -- where every sent message has been delivered -- yet in
   ``beta``'s own history the fresh message ``m1`` is sent and not
   delivered.

4. **Fair extension and contradiction** (Theorem 7.5): run fairly with
   no further inputs.

   - If the system quiesces without delivering anything, ``m1`` is never
     received: the quiescent fair behavior violates **(DL8)** directly
     (a liveness certificate).
   - If some ``receive_msg(m2)`` occurs, the suffix is replayed from the
     *real* end of ``alpha`` under the accumulated message renaming
     (Lemma 7.1): the replay delivers ``receive_msg(m3)`` after
     ``alpha``, where either ``m3 = m0`` (duplicate delivery, violating
     **(DL4)**) or ``m3`` was never sent (violating **(DL5)**).

The output is a :class:`~repro.impossibility.certificates.ViolationCertificate`
whose behavior is re-validated by the independent trace checkers.

Under tracing each phase is a span named for its lemma:
``refute.reference`` (Lemmas 4.1 and 6.3), ``refute.chain`` (7.3),
``refute.crash_replay`` once per level (7.2), ``refute.end_state`` (7.4
and the fair extension) and ``refute.map_back`` (7.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..alphabets import Message, MessageFactory, Packet, strip_uids
from ..ioa.actions import Action
from ..ioa.execution import ExecutionFragment
from ..ioa.fairness import FairnessTimeout
from ..channels.actions import (
    CRASH,
    FAIL,
    RECEIVE_PKT,
    SEND_PKT,
    WAKE,
    receive_pkt,
)
from ..datalink.actions import RECEIVE_MSG, SEND_MSG, send_msg
from ..datalink.message_independence import (
    Renaming,
    states_equivalent,
)
from ..datalink.protocol import DataLinkProtocol
from ..obs import current_tracer
from ..sim.network import DataLinkSystem, fifo_system
from .certificates import (
    DUPLICATE_DELIVERY,
    LIVENESS,
    UNSENT_DELIVERY,
    EngineError,
    ViolationCertificate,
)

Level = Tuple[str, int]  # (station, prefix length k)


@dataclass
class _AvailableEntry:
    """A packet in transit with its reference-execution counterpart."""

    channel_index: int  # send index within the channel (1-based)
    reference: Packet  # the packet of alpha this one is equivalent to


class CrashImpossibilityEngine:
    """Executable form of the Section 7 construction (see module docs)."""

    def __init__(
        self,
        protocol: DataLinkProtocol,
        max_steps: int = 100_000,
        t: str = "t",
        r: str = "r",
        message_size: int = 0,
    ):
        self.protocol = protocol
        self.max_steps = max_steps
        self.t = t
        self.r = r
        self.message_size = message_size
        self.system: DataLinkSystem = fifo_system(protocol, t, r)
        self.factory = MessageFactory(label="c")
        self.renaming = Renaming()  # constructed-world -> alpha-world
        self.narrative: List[str] = []
        self.stats: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # small helpers
    # ------------------------------------------------------------------

    def _other(self, station: str) -> str:
        return self.r if station == self.t else self.t

    def _host_signature(self, station: str):
        return (
            self.system.transmitter.signature
            if station == self.t
            else self.system.receiver.signature
        )

    def _host_automaton(self, station: str):
        return (
            self.system.transmitter
            if station == self.t
            else self.system.receiver
        )

    def _host_actions(
        self, fragment: ExecutionFragment, station: str, k: int
    ) -> Tuple[Action, ...]:
        """``acts_A(alpha, station, k)``: the station's actions among the
        first ``k`` steps."""
        signature = self._host_signature(station)
        return tuple(
            a for a in fragment.actions[:k] if signature.contains(a)
        )

    def _in_packets(
        self, fragment: ExecutionFragment, station: str, k: int
    ) -> Tuple[Packet, ...]:
        """``in_A(alpha, station, k)``: packets received by the station."""
        key = (RECEIVE_PKT, (self._other(station), station))
        return tuple(
            a.payload for a in fragment.actions[:k] if a.key == key
        )

    def _out_packets(
        self, fragment: ExecutionFragment, station: str, k: int
    ) -> Tuple[Packet, ...]:
        """``out_A(alpha, station, k)``: packets sent by the station."""
        key = (SEND_PKT, (station, self._other(station)))
        return tuple(
            a.payload for a in fragment.actions[:k] if a.key == key
        )

    def _alpha_host_state(self, station: str, k: int):
        return self.system.host_state(self.alpha.states[k], station)

    def _equiv(self, value, reference) -> bool:
        return strip_uids(self.renaming.apply(value)) == strip_uids(
            reference
        )

    # ------------------------------------------------------------------
    # Phase 1: the reference execution alpha (Lemma 4.1)
    # ------------------------------------------------------------------

    def _build_reference(self) -> Optional[ViolationCertificate]:
        """Construct alpha; returns a liveness certificate if the protocol
        cannot even deliver one message over ideal channels."""
        system = self.system
        self.m0 = self.factory.fresh(self.message_size)
        target_key = (RECEIVE_MSG, (self.t, self.r))
        try:
            fragment = system.run_fair(
                system.initial_state(),
                inputs=[
                    system.wake_t(),
                    system.wake_r(),
                    system.send(self.m0),
                ],
                max_steps=self.max_steps,
                stop_when=lambda a: a.key == target_key
                and a.payload == self.m0,
            )
        except FairnessTimeout as exc:
            raise EngineError(
                "protocol does not quiesce over clean FIFO channels; "
                "cannot construct the reference execution"
            ) from exc
        delivered = fragment.actions and fragment.actions[-1].key == target_key
        if not delivered:
            # Quiesced without delivering m0: (DL8) fails outright.
            behavior = system.behavior(fragment)
            self.narrative.append(
                "reference run quiesced without delivering m0: the "
                "protocol violates (DL8) over ideal FIFO channels"
            )
            return ViolationCertificate(
                protocol_name=self.protocol.name,
                theorem="theorem-7.5",
                kind=LIVENESS,
                behavior=behavior,
                violated=("DL8",),
                narrative=tuple(self.narrative),
                stats=dict(self.stats),
                t=self.t,
                r=self.r,
            )
        # Lemma 6.3: leave both channels clean at the end of alpha.
        cleaned = system.clean_channels(fragment.final_state)
        self.alpha = fragment.with_final_state(cleaned)
        # All intermediate states keep their original channel components;
        # only the final state is surgered, which is what the lemmas allow.
        self.stats["alpha_steps"] = len(self.alpha)
        self.narrative.append(
            f"reference execution alpha built: {len(self.alpha)} steps, "
            f"behavior wake wake send({self.m0}) receive({self.m0}); "
            "channels left clean (Lemma 6.3)"
        )
        return None

    # ------------------------------------------------------------------
    # Phase 2: the alternation chain (Lemma 7.3 recursion, unrolled)
    # ------------------------------------------------------------------

    def _build_levels(self) -> List[Level]:
        """The pumping levels, earliest first; the last is ``(t, n)``."""
        n = len(self.alpha)
        receiver_signature = self._host_signature(self.r)
        n_r = 0
        for index in range(n, 0, -1):
            if receiver_signature.contains(self.alpha.actions[index - 1]):
                n_r = index
                break
        levels: List[Level] = [(self.t, n)]
        if n_r >= 3:
            levels.insert(0, (self.r, n_r))
            side, k = self.r, n_r
            while True:
                other = self._other(side)
                other_signature = self._host_signature(other)
                j = 0
                for index in range(k - 1, 2, -1):
                    if other_signature.contains(
                        self.alpha.actions[index - 1]
                    ):
                        j = index
                        break
                if j == 0:
                    break
                levels.insert(0, (other, j))
                side, k = other, j
        self.stats["pump_levels"] = len(levels)
        return levels

    # ------------------------------------------------------------------
    # Phase 2/3: crash-and-replay (Lemma 7.2)
    # ------------------------------------------------------------------

    def _step(self, action: Action) -> None:
        state = self.system.automaton.step(self.fragment.final_state, action)
        self.fragment = self.fragment.append(action, state)

    def _surgery(self, new_state) -> None:
        """Replace the current state via channel surgery (Section 6.3)."""
        self.fragment = self.fragment.with_final_state(new_state)

    def _crash_and_replay(
        self, station: str, k: int
    ) -> Tuple[List[_AvailableEntry], Dict[Message, Message]]:
        """Crash ``station`` and replay its first ``k`` reference steps.

        Returns the packets it sent (with their reference counterparts)
        and the fresh-message bindings created.  Implements the
        ``gamma`` construction of Lemma 7.2; every step asserts the
        message-independence conditions it relies on.
        """
        system = self.system
        other = self._other(station)
        automaton = self._host_automaton(station)
        crash_action = (
            system.crash_t() if station == self.t else system.crash_r()
        )
        self._step(crash_action)
        crashed_core = system.host_state(
            self.fragment.final_state, station
        ).core
        if crashed_core != automaton.logic.initial_core():
            raise EngineError(
                f"protocol is not crashing: crash at {station} left core "
                f"{crashed_core!r}"
            )

        bindings: Dict[Message, Message] = {}
        sent: List[_AvailableEntry] = []
        reference_actions = self._host_actions(self.alpha, station, k)
        for reference in reference_actions:
            if reference.name == WAKE:
                self._step(reference)
            elif reference.name in (FAIL, CRASH):
                raise EngineError(
                    "reference execution unexpectedly contains "
                    f"{reference}; alpha must be failure-free after the "
                    "initial wakes"
                )
            elif reference.key == (SEND_MSG, (self.t, self.r)):
                # Fresh message from the same size class (Section 9:
                # equivalence may distinguish message lengths).
                fresh = self.factory.fresh(size=reference.payload.size)
                self.renaming.bind(fresh, reference.payload)
                bindings[fresh] = reference.payload
                self._step(send_msg(self.t, self.r, fresh))
            elif reference.key == (RECEIVE_PKT, (other, station)):
                channel_state = system.channel_state(
                    self.fragment.final_state, other
                )
                deliverable = channel_state.deliverable()
                if deliverable is None:
                    raise EngineError(
                        f"replay at {station} expected a waiting packet "
                        f"equivalent to {reference.payload}, but the "
                        "channel has none"
                    )
                packet = deliverable[1]
                if not self._equiv(packet, reference.payload):
                    raise EngineError(
                        f"waiting packet {packet} is not equivalent to the "
                        f"reference packet {reference.payload}"
                    )
                self._step(receive_pkt(other, station, packet))
            else:
                # Locally-controlled action: send_pkt or receive_msg.
                host = system.host_state(self.fragment.final_state, station)
                candidates = [
                    a
                    for a in automaton.enabled_local_actions(host)
                    if a.key == reference.key
                    and self._equiv(a.payload, reference.payload)
                ]
                if not candidates:
                    raise EngineError(
                        f"message-independence failure: no action "
                        f"equivalent to {reference} is enabled at "
                        f"{station} (state {host.core!r})"
                    )
                chosen = candidates[0]
                self._step(chosen)
                if chosen.key == (SEND_PKT, (station, other)):
                    channel_state = system.channel_state(
                        self.fragment.final_state, station
                    )
                    sent.append(
                        _AvailableEntry(
                            channel_state.counter1, reference.payload
                        )
                    )

        final_host = system.host_state(self.fragment.final_state, station)
        reference_state = self._alpha_host_state(station, k)
        if not states_equivalent(final_host, reference_state, self.renaming):
            raise EngineError(
                f"replay at {station} did not reproduce an equivalent "
                f"state: got {final_host.core!r}, reference "
                f"{reference_state.core!r}"
            )
        self.stats["replayed_steps"] = self.stats.get(
            "replayed_steps", 0
        ) + len(reference_actions)
        current_tracer().count(
            "refute.replayed_steps", len(reference_actions)
        )
        return sent, bindings

    def _select_waiting(
        self,
        station: str,
        expected: Sequence[Packet],
        available: Sequence[_AvailableEntry],
    ) -> None:
        """Lemma 6.6: keep exactly the packets the reference consumed.

        ``expected`` are reference packets (``in_A``); ``available`` maps
        in-transit packets of the constructed execution to their
        reference counterparts.  Selects the matching subsequence and
        schedules it as the channel's waiting sequence.
        """
        other = self._other(station)
        indices: List[int] = []
        cursor = 0
        for packet in expected:
            found = None
            while cursor < len(available):
                entry = available[cursor]
                cursor += 1
                if entry.reference.uid == packet.uid:
                    found = entry
                    break
            if found is None:
                raise EngineError(
                    f"reference packet {packet} not among the packets in "
                    f"transit to {station}"
                )
            indices.append(found.channel_index)
        state = self.system.set_waiting(
            self.fragment.final_state, other, indices
        )
        self._surgery(state)

    # ------------------------------------------------------------------
    # Phase 5: Lemma 7.1 replay back onto alpha
    # ------------------------------------------------------------------

    def _map_suffix_onto_alpha(
        self, suffix: Sequence[Action]
    ) -> ExecutionFragment:
        """Replay the fair-extension suffix from the real end of alpha.

        Every action of the suffix is translated through the accumulated
        renaming and executed from ``alpha``'s final state (channels
        clean on both sides, matching the constructed execution).
        Message-independence (Lemma 7.1) guarantees each translated step
        is enabled; the engine asserts it.
        """
        system = self.system
        mapped = ExecutionFragment.initial(self.alpha.final_state)
        for action in suffix:
            state = mapped.final_state
            if action.name == RECEIVE_PKT:
                src = action.direction[0]
                channel_state = system.channel_state(state, src)
                deliverable = channel_state.deliverable()
                if deliverable is None:
                    raise EngineError(
                        "mapped replay expected a deliverable packet on "
                        f"channel {src} but found none"
                    )
                packet = deliverable[1]
                if not self._equiv(action.payload, packet):
                    raise EngineError(
                        f"mapped delivery {packet} does not correspond to "
                        f"{action.payload}"
                    )
                mapped_action = receive_pkt(
                    src, action.direction[1], packet
                )
            elif action.name in (SEND_PKT, RECEIVE_MSG):
                station = (
                    action.direction[0]
                    if action.name == SEND_PKT
                    else self.r
                )
                automaton = self._host_automaton(station)
                host = system.host_state(state, station)
                candidates = [
                    a
                    for a in automaton.enabled_local_actions(host)
                    if a.key == action.key
                    and self._equiv(action.payload, a.payload)
                ]
                if not candidates:
                    raise EngineError(
                        "message-independence failure in the Lemma 7.1 "
                        f"replay: no action equivalent to {action} enabled"
                    )
                mapped_action = candidates[0]
            elif action.name in (WAKE, FAIL, CRASH, SEND_MSG):
                raise EngineError(
                    f"fair extension unexpectedly contains input {action}"
                )
            else:
                raise EngineError(f"unhandled action {action} in suffix")
            new_state = system.automaton.step(state, mapped_action)
            mapped = mapped.append(mapped_action, new_state)
        return mapped

    # ------------------------------------------------------------------
    # Main entry point
    # ------------------------------------------------------------------

    def run(self) -> ViolationCertificate:
        """Execute the Theorem 7.5 construction; returns the certificate."""
        tracer = current_tracer()
        with tracer.span(
            "refute.crash", protocol=self.protocol.name
        ):
            return self._run(tracer)

    def _run(self, tracer) -> ViolationCertificate:
        with tracer.span("refute.reference"):
            early = self._build_reference()
        if early is not None:
            return early

        system = self.system
        with tracer.span("refute.chain"):
            levels = self._build_levels()
        self.narrative.append(
            "alternation chain (Lemma 7.3): "
            + " -> ".join(f"({side},{k})" for side, k in levels)
        )

        # Start the constructed execution: fresh system, both wakes.
        start = system.run_inputs(
            system.initial_state(), [system.wake_t(), system.wake_r()]
        )
        self.fragment = start

        available: Dict[str, List[_AvailableEntry]] = {
            self.t: [],
            self.r: [],
        }
        last_bindings: Dict[Message, Message] = {}
        for side, k in levels:
            with tracer.span("refute.round", station=side, k=k):
                with tracer.span("refute.crash_replay"):
                    expected = self._in_packets(self.alpha, side, k)
                    self._select_waiting(side, expected, available[side])
                    sent, bindings = self._crash_and_replay(side, k)
            available[self._other(side)] = sent
            if side == self.t:
                last_bindings = bindings
            if tracer.enabled:
                tracer.count("refute.crash_injections")
                tracer.count("refute.packets_consumed", len(expected))
                tracer.count("refute.packets_sent", len(sent))
            self.narrative.append(
                f"level ({side},{k}): crashed {side}, replayed "
                f"{k} reference steps, consumed {len(expected)} packets, "
                f"sent {len(sent)}"
            )

        with tracer.span("refute.end_state"):
            # Lemma 7.4 end state: clean both channels.
            self._surgery(system.clean_channels(self.fragment.final_state))
            m1 = next(
                (
                    fresh
                    for fresh, ref in last_bindings.items()
                    if ref == self.m0
                ),
                None,
            )
            if m1 is None:
                raise EngineError(
                    "final transmitter replay did not re-send a message "
                    "equivalent to m0"
                )
            self.narrative.append(
                f"Lemma 7.4 state reached: both stations equivalent to the "
                f"end of alpha, channels clean, fresh message {m1} sent but "
                "undelivered"
            )

            # Theorem 7.5: fair extension with no further inputs.
            try:
                extended = system.run_fair(
                    self.fragment.final_state,
                    max_steps=self.max_steps,
                    stop_when=lambda a: a.key
                    == (RECEIVE_MSG, (self.t, self.r)),
                )
            except FairnessTimeout as exc:
                raise EngineError(
                    "fair extension did not quiesce or deliver; cannot "
                    "classify the violation"
                ) from exc
        suffix = extended.actions
        delivered = [
            a for a in suffix if a.key == (RECEIVE_MSG, (self.t, self.r))
        ]

        if not delivered:
            # Quiescent with m1 undelivered: (DL8) violated on the
            # constructed execution itself.
            full = self.fragment.extend(extended)
            behavior = system.behavior(full)
            self.narrative.append(
                f"fair extension quiesced without delivering {m1}: "
                "(DL8) violated"
            )
            certificate = ViolationCertificate(
                protocol_name=self.protocol.name,
                theorem="theorem-7.5",
                kind=LIVENESS,
                behavior=behavior,
                violated=("DL8",),
                narrative=tuple(self.narrative),
                stats=dict(self.stats),
                t=self.t,
                r=self.r,
            )
        else:
            with tracer.span("refute.map_back"):
                # Lemma 7.1: replay the suffix from the real end of alpha.
                mapped = self._map_suffix_onto_alpha(suffix)
                try:
                    mapped_quiesced = system.run_fair(
                        mapped.final_state, max_steps=self.max_steps
                    )
                    mapped = mapped.extend(mapped_quiesced)
                except FairnessTimeout:
                    # Safety violations below persist regardless; keep the
                    # truncated (still valid) execution.
                    pass
                m3 = next(
                    a.payload
                    for a in mapped.actions
                    if a.key == (RECEIVE_MSG, (self.t, self.r))
                )
                behavior = system.behavior(self.alpha.extend(mapped))
            kind = DUPLICATE_DELIVERY if m3 == self.m0 else UNSENT_DELIVERY
            violated = ("DL4",) if m3 == self.m0 else ("DL5",)
            self.narrative.append(
                f"fair extension delivered {delivered[0].payload}; mapped "
                f"back onto alpha (Lemma 7.1) it delivers {m3}: "
                f"{'duplicate of m0' if m3 == self.m0 else 'never sent'}"
            )
            certificate = ViolationCertificate(
                protocol_name=self.protocol.name,
                theorem="theorem-7.5",
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


def refute_crash_tolerance(
    protocol: DataLinkProtocol,
    max_steps: int = 100_000,
    message_size: int = 0,
) -> ViolationCertificate:
    """Run the Theorem 7.5 construction against ``protocol``.

    The protocol must be crashing and message-independent (the engine
    verifies both along the way and raises
    :class:`~repro.impossibility.certificates.EngineError` otherwise).
    """
    return CrashImpossibilityEngine(
        protocol, max_steps=max_steps, message_size=message_size
    ).run()

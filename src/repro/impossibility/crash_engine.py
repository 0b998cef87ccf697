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
whose behavior is re-validated by the independent trace checkers on
every path, the reference-phase (DL8) certificate included: all of
them are issued by the shared construction core
(:mod:`~repro.impossibility.construction`), which also grows the
execution and takes the message-independence copy steps of Lemmas 7.1
and 7.2.

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
from ..channels.actions import CRASH, FAIL, RECEIVE_PKT, SEND_PKT, WAKE
from ..datalink.actions import RECEIVE_MSG, SEND_MSG, send_msg
from ..datalink.message_independence import (
    Renaming,
    states_equivalent,
)
from ..datalink.protocol import DataLinkProtocol
from ..obs import current_tracer
from ..sim.network import fifo_system
from .certificates import (
    DUPLICATE_DELIVERY,
    LIVENESS,
    UNSENT_DELIVERY,
    EngineError,
    ViolationCertificate,
)
from .construction import Construction

Level = Tuple[str, int]  # (station, prefix length k)


@dataclass
class _AvailableEntry:
    """A packet in transit with its reference-execution counterpart."""

    channel_index: int  # send index within the channel (1-based)
    reference: Packet  # the packet of alpha this one is equivalent to


class CrashImpossibilityEngine(Construction):
    """Executable form of the Section 7 construction (see module docs)."""

    theorem = "theorem-7.5"
    span = "refute.crash"

    def __init__(
        self,
        protocol: DataLinkProtocol,
        max_steps: int = 100_000,
        t: str = "t",
        r: str = "r",
        message_size: int = 0,
    ):
        super().__init__(
            protocol, fifo_system(protocol, t, r), max_steps, t, r
        )
        self.message_size = message_size
        self.factory = MessageFactory(label="c")
        self.renaming = Renaming()  # constructed-world -> alpha-world

    # ------------------------------------------------------------------
    # small helpers
    # ------------------------------------------------------------------

    def _other(self, station: str) -> str:
        return self.r if station == self.t else self.t

    def _host_actions(
        self, fragment: ExecutionFragment, station: str, k: int
    ) -> Tuple[Action, ...]:
        """``acts_A(alpha, station, k)``: the station's actions among the
        first ``k`` steps."""
        signature = self._host_automaton(station).signature
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
        fragment, delivered = self._deliver(
            ExecutionFragment.initial(system.initial_state()),
            self.m0,
            [system.wake_t(), system.wake_r(), system.send(self.m0)],
            "protocol does not quiesce over clean FIFO channels; "
            "cannot construct the reference execution",
        )
        self._begin(fragment)
        if not delivered:
            # Quiesced without delivering m0: (DL8) fails outright.
            self.narrative.append(
                "reference run quiesced without delivering m0: the "
                "protocol violates (DL8) over ideal FIFO channels"
            )
            return self._certify(LIVENESS, self._behavior(), ("DL8",))
        # Lemma 6.3: leave both channels clean at the end of alpha.
        # All intermediate states keep their original channel components;
        # only the final state is surgered, which is what the lemmas allow.
        self._surgery(system.clean_channels(self._final_state))
        self.alpha = self._record
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
        receiver_signature = self._host_automaton(self.r).signature
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
                other_signature = self._host_automaton(other).signature
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
        self._step(system.crash_t() if station == self.t else system.crash_r())
        crashed_core = system.host_state(self._final_state, station).core
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
            else:
                # receive_pkt, send_pkt or receive_msg: an equivalent step.
                chosen = self._mirror(
                    reference, self._equiv, "Lemma 7.2 replay"
                )
                self._step(chosen)
                if chosen.key == (SEND_PKT, (station, other)):
                    channel_state = system.channel_state(
                        self._final_state, station
                    )
                    sent.append(
                        _AvailableEntry(
                            channel_state.counter1, reference.payload
                        )
                    )

        final_host = system.host_state(self._final_state, station)
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
        self._surgery(
            self.system.set_waiting(self._final_state, other, indices)
        )

    # ------------------------------------------------------------------
    # Phase 5: Lemma 7.1 replay back onto alpha
    # ------------------------------------------------------------------

    def _map_suffix_onto_alpha(self, suffix: Sequence[Action]) -> None:
        """Replay the fair-extension suffix from the real end of alpha.

        The execution restarts as ``alpha`` (channels clean on both
        sides, matching the constructed execution) and takes, for every
        action of the suffix, the step equivalent to it under the
        accumulated renaming.  Message-independence (Lemma 7.1)
        guarantees each such step is enabled; the copy step asserts it.
        """

        def same(mapped, constructed) -> bool:
            return self._equiv(constructed, mapped)

        alpha = self.alpha
        self._begin(ExecutionFragment(alpha.states, alpha.actions))
        for action in suffix:
            self._step(self._mirror(action, same, "Lemma 7.1 replay"))

    # ------------------------------------------------------------------
    # Main entry point
    # ------------------------------------------------------------------

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
        self._begin()

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

        receive_key = (RECEIVE_MSG, (self.t, self.r))
        with tracer.span("refute.end_state"):
            # Lemma 7.4 end state: clean both channels.
            self._surgery(system.clean_channels(self._final_state))
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
            start = len(self._record)
            try:
                self._extend_fairly(lambda a: a.key == receive_key)
            except FairnessTimeout as exc:
                raise EngineError(
                    "fair extension did not quiesce or deliver; cannot "
                    "classify the violation"
                ) from exc
        suffix = self._record.actions[start:]
        delivered = [a for a in suffix if a.key == receive_key]

        if not delivered:
            # Quiescent with m1 undelivered: (DL8) violated on the
            # constructed execution itself.
            self.narrative.append(
                f"fair extension quiesced without delivering {m1}: "
                "(DL8) violated"
            )
            return self._certify(LIVENESS, self._behavior(), ("DL8",))
        with tracer.span("refute.map_back"):
            # Lemma 7.1: replay the suffix from the real end of alpha.
            self._map_suffix_onto_alpha(suffix)
            try:
                self._extend_fairly()
            except FairnessTimeout:
                # Safety violations below persist regardless; keep the
                # execution as it was before the extension.
                pass
            m3 = next(
                a.payload
                for a in self._record.actions[len(self.alpha) :]
                if a.key == receive_key
            )
            behavior = self._behavior()
        self.narrative.append(
            f"fair extension delivered {delivered[0].payload}; mapped "
            f"back onto alpha (Lemma 7.1) it delivers {m3}: "
            f"{'duplicate of m0' if m3 == self.m0 else 'never sent'}"
        )
        if m3 == self.m0:
            return self._certify(DUPLICATE_DELIVERY, behavior, ("DL4",))
        return self._certify(UNSENT_DELIVERY, behavior, ("DL5",))


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

"""Composed data-link systems: D(A), D-hat'(A), D-bar'(A) (paper, Section 6).

``DataLinkSystem`` wires a data link protocol ``A = (A^t, A^r)`` to two
physical channels and hides the packet actions, producing the automaton
``D'(A) = hide_Phi(A^t x A^r x C^{t,r} x C^{r,t})`` whose external actions
are exactly the data-link-layer actions.  The channel automata are
seed-free; a seeded adversary is a pair of channel start states, which
:meth:`DataLinkSystem.started` puts on a system.  It also exposes the
channel states for the adversary surgeries of Section 6.3, which is how
the impossibility engines manipulate executions.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Iterable, Optional, Sequence, Tuple

from ..alphabets import Message
from ..ioa.actions import Action
from ..ioa.automaton import State
from ..ioa.composition import Composition
from ..ioa.execution import ExecutionFragment
from ..ioa.fairness import apply_inputs, fair_extension
from ..ioa.hiding import Hidden
from ..channels.actions import crash, fail, packet_families, wake
from ..channels.permissive import (
    PermissiveChannel,
    PermissiveChannelState,
    PermissiveFifoChannel,
)
from ..datalink.actions import receive_msg, send_msg
from ..datalink.protocol import (
    DataLinkProtocol,
    HostState,
    ReceiverAutomaton,
    TransmitterAutomaton,
)

# Component indices in the composed state vector.
TRANSMITTER = 0
RECEIVER = 1
CHANNEL_TR = 2
CHANNEL_RT = 3


@dataclass
class DataLinkSystem:
    """A data link protocol composed with two physical channels.

    The composed state is the 4-tuple (transmitter, receiver, channel
    t->r, channel r->t).  ``automaton`` is the hidden composition
    ``D'(A)`` whose behaviors are data-link-layer behaviors.  ``start``,
    if set, is the start state (Section 2.2) a run begins in: seeded
    channels (:meth:`started`) or, under a fuzz campaign's arbitrary
    init mode, a corrupted start
    (:func:`~repro.conformance.harness.build_system`).
    """

    t: str
    r: str
    protocol: DataLinkProtocol
    transmitter: TransmitterAutomaton
    receiver: ReceiverAutomaton
    channel_tr: PermissiveChannel
    channel_rt: PermissiveChannel
    composition: Composition
    automaton: Hidden
    start: Optional[State] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @staticmethod
    def build(
        protocol: DataLinkProtocol,
        channel_tr: PermissiveChannel,
        channel_rt: PermissiveChannel,
        t: str = "t",
        r: str = "r",
        ghost_uids: bool = True,
        stations: Optional[Tuple[TransmitterAutomaton, ReceiverAutomaton]] = None,
    ) -> "DataLinkSystem":
        """Compose ``protocol`` with the two channels, over fresh
        stations or a prebuilt ``(transmitter, receiver)`` pair."""
        transmitter, receiver = stations or protocol.build(
            t, r, ghost_uids=ghost_uids
        )
        composition = Composition(
            [transmitter, receiver, channel_tr, channel_rt],
            name=f"D({protocol.name})",
        )
        hidden = Hidden(
            composition, packet_families(t, r) + packet_families(r, t)
        )
        return DataLinkSystem(
            t,
            r,
            protocol,
            transmitter,
            receiver,
            channel_tr,
            channel_rt,
            composition,
            hidden,
        )

    # ------------------------------------------------------------------
    # State access
    # ------------------------------------------------------------------

    def initial_state(self) -> State:
        if self.start is not None:
            return self.start
        return self.composition.initial_state()

    def started(self, channel_tr: State, channel_rt: State) -> "DataLinkSystem":
        """This system, sharing its automata, with its channels starting
        in ``channel_tr`` and ``channel_rt`` and its stations in their
        own start states.

        This is where a channel adversary enters a system: the paper
        puts ``C-bar``'s delivery set in its start state (Section 6.1).
        A FIFO channel's set must be monotone (Section 6.2), else this
        raises ``DeliverySetError``; a seeded monotone set answers that
        without being drawn.
        """
        for channel, state in (
            (self.channel_tr, channel_tr),
            (self.channel_rt, channel_rt),
        ):
            if channel.fifo_only:
                channel.check_delivery(state.delivery)
        stations = self.composition.initial_state()[:CHANNEL_TR]
        return replace(self, start=stations + (channel_tr, channel_rt))

    def host_state(self, state: State, station: str) -> HostState:
        """The protocol automaton state at station ``t`` or ``r``."""
        index = TRANSMITTER if station == self.t else RECEIVER
        return state[index]

    def channel(self, src: str) -> PermissiveChannel:
        """The physical channel whose transmitting end is ``src``."""
        return self.channel_tr if src == self.t else self.channel_rt

    def channel_index(self, src: str) -> int:
        return CHANNEL_TR if src == self.t else CHANNEL_RT

    def channel_state(self, state: State, src: str) -> PermissiveChannelState:
        return state[self.channel_index(src)]

    def with_channel_state(
        self, state: State, src: str, channel_state: PermissiveChannelState
    ) -> State:
        index = self.channel_index(src)
        return state[:index] + (channel_state,) + state[index + 1 :]

    # ------------------------------------------------------------------
    # Adversary surgeries (Section 6.3), lifted to system states
    # ------------------------------------------------------------------

    def clean_channel(self, state: State, src: str) -> State:
        """Lemma 6.3 on one channel: lose everything in transit."""
        channel = self.channel(src)
        return self.with_channel_state(
            state, src, channel.make_clean(self.channel_state(state, src))
        )

    def clean_channels(self, state: State) -> State:
        """Lemma 6.3 on both channels."""
        return self.clean_channel(self.clean_channel(state, self.t), self.r)

    def channels_clean(self, state: State) -> bool:
        return (
            self.channel_state(state, self.t).is_clean()
            and self.channel_state(state, self.r).is_clean()
        )

    def set_waiting(
        self, state: State, src: str, indices: Sequence[int]
    ) -> State:
        """Lemmas 6.5-6.7: schedule exactly ``indices`` as next deliveries."""
        channel = self.channel(src)
        return self.with_channel_state(
            state,
            src,
            channel.with_waiting(self.channel_state(state, src), indices),
        )

    # ------------------------------------------------------------------
    # Driving the system
    # ------------------------------------------------------------------

    def run_inputs(self, state: State, actions: Iterable[Action]) -> ExecutionFragment:
        return apply_inputs(self.automaton, state, actions)

    def run_fair(
        self,
        state: State,
        inputs: Iterable[Action] = (),
        max_steps: int = 100_000,
        stop_when: Optional[Callable[[Action], bool]] = None,
    ) -> ExecutionFragment:
        """Lemma 2.1: feed inputs, then run fairly to quiescence."""
        return fair_extension(
            self.automaton,
            ExecutionFragment.initial(state),
            inputs=inputs,
            max_steps=max_steps,
            stop_when=stop_when,
        )

    def deliver(
        self,
        state: State,
        message: Message,
        inputs: Iterable[Action] = (),
        max_steps: int = 100_000,
    ) -> Tuple[ExecutionFragment, bool]:
        """:meth:`run_fair` until ``receive_msg(message)``.

        Returns the run and whether it delivered ``message``; a run that
        quiesces first did not.  Raises ``FairnessTimeout`` as
        :meth:`run_fair` does.
        """
        target = self.receive(message)
        run = self.run_fair(state, inputs, max_steps, stop_when=target.__eq__)
        return run, run.actions[-1:] == (target,)

    def behavior(self, fragment: ExecutionFragment) -> Tuple[Action, ...]:
        """The data-link-layer behavior of an execution of ``D'(A)``."""
        return fragment.behavior(self.automaton.signature)

    # ------------------------------------------------------------------
    # Convenience action constructors
    # ------------------------------------------------------------------

    def wake_t(self) -> Action:
        return wake(self.t, self.r)

    def wake_r(self) -> Action:
        return wake(self.r, self.t)

    def fail_t(self) -> Action:
        return fail(self.t, self.r)

    def fail_r(self) -> Action:
        return fail(self.r, self.t)

    def crash_t(self) -> Action:
        return crash(self.t, self.r)

    def crash_r(self) -> Action:
        return crash(self.r, self.t)

    def send(self, message: Message) -> Action:
        return send_msg(self.t, self.r, message)

    def receive(self, message: Message) -> Action:
        return receive_msg(self.t, self.r, message)


def fifo_system(
    protocol: DataLinkProtocol,
    t: str = "t",
    r: str = "r",
) -> DataLinkSystem:
    """``D-hat'(A)``: the protocol over two permissive FIFO channels."""
    return DataLinkSystem.build(
        protocol,
        PermissiveFifoChannel(t, r),
        PermissiveFifoChannel(r, t),
        t,
        r,
    )


def permissive_system(
    protocol: DataLinkProtocol,
    t: str = "t",
    r: str = "r",
) -> DataLinkSystem:
    """``D-bar'(A)``: the protocol over two permissive (non-FIFO) channels."""
    return DataLinkSystem.build(
        protocol,
        PermissiveChannel(t, r),
        PermissiveChannel(r, t),
        t,
        r,
    )


def custom_system(
    protocol: DataLinkProtocol,
    channel_tr: PermissiveChannel,
    channel_rt: PermissiveChannel,
) -> DataLinkSystem:
    """The protocol over arbitrary given physical channels."""
    return DataLinkSystem.build(
        protocol, channel_tr, channel_rt, channel_tr.src, channel_rt.src
    )

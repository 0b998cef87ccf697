"""Exhaustive bounded model checking of data link protocols.

Closes a protocol composition with (a) two nondeterministic lossy FIFO
channels of bounded capacity and (b) a scripted environment automaton
that wakes both stations, submits a fixed batch of messages, and
records every delivery it observes.  The resulting system is a closed,
finite-state I/O automaton, so :func:`repro.ioa.explorer.explore`
enumerates *every* reachable state -- all loss patterns, all
interleavings -- and checks the delivery-correctness invariant at each:

    the recorded delivery sequence is always a prefix of the submitted
    message sequence (in order, no duplicates, no inventions).

This complements the randomized harness (which samples behaviors) and
the impossibility engines (which construct specific adversarial ones):
for small bounds it is a proof over the bounded space.  The (PL2) ghost
uids are disabled during exploration -- they are a proof device that
would make the space infinite -- so the checked system is the protocol
exactly as it would run on a wire.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, Optional, Tuple

from ..alphabets import Message, MessageFactory
from ..ioa.actions import Action
from ..ioa.automaton import Automaton, State
from ..ioa.composition import Composition
from ..ioa.explorer import ExplorationResult, explore
from ..ioa.signature import ActionSignature
from ..channels.nondet import NondetLossyFifoChannel
from ..datalink.actions import RECEIVE_MSG, SEND_MSG, send_msg
from ..channels.actions import WAKE, wake
from ..datalink.protocol import DataLinkProtocol
from ..ioa.actions import action_family


@dataclass(frozen=True)
class EnvState:
    """Environment bookkeeping: what was sent and what came back."""

    woke_t: bool = False
    woke_r: bool = False
    sent: int = 0
    delivered: Tuple[Message, ...] = ()


class ScriptedEnvironment(Automaton):
    """Closes the system: wakes, submits messages, records deliveries."""

    def __init__(self, t: str, r: str, messages: Tuple[Message, ...]):
        self.t = t
        self.r = r
        self.messages = messages
        self._signature = ActionSignature.make(
            inputs=[action_family(RECEIVE_MSG, t, r)],
            outputs=[
                action_family(SEND_MSG, t, r),
                action_family(WAKE, t, r),
                action_family(WAKE, r, t),
            ],
        )
        self.name = "environment"

    @property
    def signature(self) -> ActionSignature:
        return self._signature

    def initial_state(self) -> EnvState:
        return EnvState()

    def transitions(self, state: EnvState, action: Action) -> Tuple[EnvState, ...]:
        if action.key == (WAKE, (self.t, self.r)):
            if state.woke_t:
                return ()
            return (EnvState(True, state.woke_r, state.sent, state.delivered),)
        if action.key == (WAKE, (self.r, self.t)):
            if state.woke_r:
                return ()
            return (EnvState(state.woke_t, True, state.sent, state.delivered),)
        if action.key == (SEND_MSG, (self.t, self.r)):
            if not (state.woke_t and state.woke_r):
                return ()
            if state.sent >= len(self.messages):
                return ()
            if action.payload != self.messages[state.sent]:
                return ()
            return (
                EnvState(
                    True, True, state.sent + 1, state.delivered
                ),
            )
        if action.key == (RECEIVE_MSG, (self.t, self.r)):
            return (
                EnvState(
                    state.woke_t,
                    state.woke_r,
                    state.sent,
                    state.delivered + (action.payload,),
                ),
            )
        return ()

    def enabled_local_actions(self, state: EnvState) -> Iterable[Action]:
        if not state.woke_t:
            yield wake(self.t, self.r)
        if not state.woke_r:
            yield wake(self.r, self.t)
        if (
            state.woke_t
            and state.woke_r
            and state.sent < len(self.messages)
        ):
            yield send_msg(self.t, self.r, self.messages[state.sent])

    def task_of(self, action: Action) -> Hashable:
        return (self.name, "drive")

    def tasks(self) -> Iterable[Hashable]:
        return [(self.name, "drive")]


@dataclass
class ModelCheckResult:
    """Outcome of an exhaustive bounded verification."""

    protocol_name: str
    messages: int
    capacity: int
    states_explored: int
    exhaustive: bool  # False when a bound was hit before exhaustion
    counterexample: Optional[Tuple[Action, ...]] = None
    #: Why the compiled core could not run this check (the pure-Python
    #: engine answered instead); ``None`` when it ran.
    fallback: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.counterexample is None

    def report(self, duration_s: float = 0.0) -> "RunReport":
        """This result as the unified :class:`~repro.obs.RunReport`."""
        from ..obs import STATUS_OK, STATUS_VIOLATION, RunReport

        details = {
            "protocol": self.protocol_name,
            "messages": self.messages,
            "capacity": self.capacity,
            "exhaustive": self.exhaustive,
        }
        if self.counterexample is not None:
            details["counterexample"] = [
                str(action) for action in self.counterexample
            ]
        if self.fallback is not None:
            details["fallback"] = self.fallback
        return RunReport(
            command="verify",
            status=STATUS_OK if self.ok else STATUS_VIOLATION,
            counters={"explore.states": self.states_explored},
            duration_s=duration_s,
            details=details,
        )


def build_closed_system(
    protocol: DataLinkProtocol,
    messages: int = 2,
    capacity: int = 2,
    reorder_depth: int = 1,
):
    """The closed system used for exhaustive verification.

    Returns ``(composition, invariant, batch)``: the protocol composed
    with two bounded nondeterministic lossy channels and the scripted
    environment, plus the delivery-prefix invariant over its states.
    Shared by :func:`verify_delivery_order`, the backend differential
    tests and the engine-vs-reference timing in
    ``benchmarks/bench_model_check.py``.  The components carry no
    slice table: both exploration backends step through the
    :class:`~repro.ioa.engine.encoding.StateEncoder`, which keeps a
    fresh one per slot.
    """
    t, r = "t", "r"
    factory = MessageFactory(label="v")
    batch = factory.fresh_many(messages)
    transmitter, receiver = protocol.build(t, r, ghost_uids=False)
    components = [
        transmitter,
        receiver,
        NondetLossyFifoChannel(
            t, r, capacity=capacity, reorder_depth=reorder_depth
        ),
        NondetLossyFifoChannel(
            r, t, capacity=capacity, reorder_depth=reorder_depth
        ),
        ScriptedEnvironment(t, r, batch),
    ]
    composition = Composition(components, name=f"mc({protocol.name})")
    env_index = 4

    def invariant(state: State) -> bool:
        delivered = state[env_index].delivered
        return delivered == batch[: len(delivered)]

    # Declared read-set of the invariant (it only inspects the scripted
    # environment's slice): lets the accelerated backend cache verdicts
    # per distinct environment slice instead of per composed state.
    invariant.state_slots = (env_index,)  # type: ignore[attr-defined]

    return composition, invariant, batch


def verify_delivery_order(
    protocol: DataLinkProtocol,
    messages: int = 2,
    capacity: int = 2,
    reorder_depth: int = 1,
    max_states: int = 400_000,
) -> ModelCheckResult:
    """Exhaustively verify in-order, exactly-once delivery.

    Explores every reachable state of the closed system (protocol +
    bounded nondeterministic lossy channels + scripted environment) and
    checks that the environment's recorded delivery sequence is always
    a prefix of its submission sequence (safety only; liveness is the
    fair executors' business).

    ``reorder_depth > 1`` additionally lets the channels deliver out of
    order up to that displacement, mapping a protocol's exact
    reordering tolerance (cf. the paper's footnote 1): e.g. the
    alternating bit protocol is verified at depth 1 but yields a
    duplicate-delivery counterexample at depth 2.
    """
    composition, invariant, _ = build_closed_system(
        protocol,
        messages=messages,
        capacity=capacity,
        reorder_depth=reorder_depth,
    )
    result: ExplorationResult = explore(
        composition,
        invariant=invariant,
        max_states=max_states,
        max_depth=10_000_000,
    )
    counterexample = (
        None if result.violation is None else result.violation[1]
    )
    return ModelCheckResult(
        protocol_name=protocol.name,
        messages=messages,
        capacity=capacity,
        states_explored=len(result.states),
        exhaustive=not result.truncated,
        counterexample=counterexample,
        fallback=result.fallback,
    )

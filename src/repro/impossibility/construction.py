"""The construction core shared by the Theorem 7.5 and 8.5 engines.

Both proofs work the same way: build one execution of ``D'(A)``, rewrite
its channels between steps (Lemmas 6.3 and 6.5-6.7), and copy reference
steps with equivalent ones by message independence (Section 5.3.1,
Lemmas 7.1 and 7.2, Theorem 8.5).  :class:`Construction` holds that
machinery once; each engine adds only its theorem's own argument.

The execution is one :class:`~repro.ioa.execution.ExecutionFragment`
record, ``_record``, grown in place, so a step costs the same at any
length.  The construction owns it: no other fragment shares its lists
while the construction may still rewrite its final state by channel
surgery, and a fair extension becomes the record only once it returns.
Every certificate an engine returns comes from :meth:`_certify`, which
re-validates it with the independent trace checkers and raises
:class:`EngineError` if it does not hold.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from ..alphabets import Message
from ..channels.actions import RECEIVE_PKT, receive_pkt
from ..datalink.actions import RECEIVE_MSG
from ..datalink.protocol import DataLinkProtocol
from ..ioa.actions import Action
from ..ioa.execution import ExecutionFragment
from ..ioa.fairness import FairnessTimeout, fair_extension
from ..obs import current_tracer
from ..sim.network import DataLinkSystem
from .certificates import EngineError, ViolationCertificate


class Construction:
    """One execution of ``system`` under construction (see module docs).

    Subclasses set ``theorem`` (the certificates' theorem) and ``span``
    (the trace span :meth:`run` wraps around their ``_run``).
    """

    theorem = ""
    span = ""

    def __init__(
        self,
        protocol: DataLinkProtocol,
        system: DataLinkSystem,
        max_steps: int,
        t: str,
        r: str,
    ):
        self.protocol = protocol
        self.system = system
        self.max_steps = max_steps
        self.t = t
        self.r = r
        self.narrative: List[str] = []
        self.stats: Dict[str, int] = {}
        self._record: Optional[ExecutionFragment] = None

    def run(self) -> ViolationCertificate:
        """Execute the construction; returns the validated certificate."""
        tracer = current_tracer()
        with tracer.span(self.span, protocol=self.protocol.name):
            return self._run(tracer)

    # ------------------------------------------------------------------
    # The execution under construction
    # ------------------------------------------------------------------

    @property
    def _final_state(self):
        return self._record.final_state

    def _begin(self, fragment: Optional[ExecutionFragment] = None) -> None:
        """Restart the execution as ``fragment``, which the construction
        then owns; by default the start state followed by both wakes."""
        if fragment is None:
            system = self.system
            fragment = system.run_inputs(
                system.initial_state(), [system.wake_t(), system.wake_r()]
            )
        self._record = fragment

    def _step(self, action: Action) -> None:
        self._record.step(
            action, self.system.automaton.step(self._final_state, action)
        )

    def _extend_fairly(
        self, stop_when: Optional[Callable[[Action], bool]] = None
    ) -> None:
        """Lemma 2.1: extend the execution fairly.  On
        ``FairnessTimeout`` the execution keeps its length."""
        self._record = fair_extension(
            self.system.automaton,
            self._record,
            max_steps=self.max_steps,
            stop_when=stop_when,
        )

    def _surgery(self, state) -> None:
        """Replace the final state by channel surgery (Section 6.3)."""
        self._record.tip()[0][-1] = state

    def _host_automaton(self, station: str):
        if station == self.t:
            return self.system.transmitter
        return self.system.receiver

    def _behavior(self) -> Tuple[Action, ...]:
        return self.system.behavior(self._record)

    # ------------------------------------------------------------------
    # Fair delivery, the message-independence copy step, certificates
    # ------------------------------------------------------------------

    def _deliver(
        self,
        fragment: ExecutionFragment,
        message: Message,
        inputs: Iterable[Action],
        timeout: str,
    ) -> Tuple[ExecutionFragment, bool]:
        """:meth:`DataLinkSystem.deliver` extending ``fragment``,
        raising ``EngineError(timeout)`` if the run does not quiesce."""
        try:
            return self.system.deliver(
                fragment, message, inputs, self.max_steps
            )
        except FairnessTimeout as exc:
            raise EngineError(timeout) from exc

    def _mirror(
        self,
        reference: Action,
        same: Callable[[Any, Any], bool],
        replay: str,
    ) -> Action:
        """The step copying ``reference`` from the final state.

        A ``receive_pkt`` takes the packet waiting in its channel; any
        other action is its station's first enabled local action of
        ``reference``'s family whose payload ``p`` has
        ``same(p, reference.payload)``.
        Message independence promises one exists; if none does, the
        ``EngineError`` names the ``replay`` it failed in.
        """
        src, dst = reference.direction
        state = self._final_state
        if reference.name == RECEIVE_PKT:
            waiting = self.system.channel_state(state, src).deliverable()
            if waiting is None or not same(waiting[1], reference.payload):
                raise EngineError(
                    f"message-independence failure in the {replay}: "
                    f"channel {src} offers no packet equivalent to "
                    f"{reference.payload}"
                )
            return receive_pkt(src, dst, waiting[1])
        station = dst if reference.name == RECEIVE_MSG else src
        host = self.system.host_state(state, station)
        for action in self._host_automaton(station).enabled_local_actions(
            host
        ):
            if action.key == reference.key and same(
                action.payload, reference.payload
            ):
                return action
        raise EngineError(
            f"message-independence failure in the {replay}: no action "
            f"equivalent to {reference} is enabled at {station} "
            f"(state {host.core!r})"
        )

    def _certify(
        self,
        kind: str,
        behavior: Tuple[Action, ...],
        violated: Tuple[str, ...],
    ) -> ViolationCertificate:
        """The certificate for ``behavior``, validated independently."""
        certificate = ViolationCertificate(
            protocol_name=self.protocol.name,
            theorem=self.theorem,
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

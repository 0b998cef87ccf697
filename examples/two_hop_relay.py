#!/usr/bin/env python3
"""Layering: a two-hop network path built from two data links.

The paper's introduction motivates the data link layer as the reliable
building block the higher layers stand on ("provided for the use of the
next higher layer").  This example *is* that next layer: a relay station
``m`` forwards messages between two independent data links

    t ==[ABP over lossy FIFO]== m ==[sliding window over lossy FIFO]== r

composed from nine I/O automata (two protocol pairs, four channels, one
relay).  End-to-end in-order exactly-once delivery follows from each
hop's DL guarantee plus the relay's FIFO queue -- and the run is checked
against the DL specification end to end.

Run:  python examples/two_hop_relay.py
"""

from typing import Iterable, Tuple

from repro.alphabets import Message, MessageFactory
from repro.channels import lossy_fifo_channel, packet_families
from repro.datalink import receive_msg, send_msg
from repro.datalink.actions import RECEIVE_MSG, SEND_MSG
from repro.ioa import (
    Action,
    ActionSignature,
    Automaton,
    Composition,
    ExecutionFragment,
    action_family,
    fair_extension,
    hide,
)
from repro.protocols import alternating_bit_protocol, sliding_window_protocol


class Relay(Automaton):
    """The higher layer at the intermediate station.

    Consumes ``receive_msg^{t,m}`` deliveries from the first link and
    re-submits each as ``send_msg^{m,r}`` on the second.
    """

    def __init__(self, t: str, m: str, r: str):
        self.t, self.m, self.r = t, m, r
        self._signature = ActionSignature.make(
            inputs=[action_family(RECEIVE_MSG, t, m)],
            outputs=[action_family(SEND_MSG, m, r)],
        )
        self.name = f"relay[{m}]"

    @property
    def signature(self) -> ActionSignature:
        return self._signature

    def initial_state(self) -> Tuple[Message, ...]:
        return ()

    def transitions(self, state, action):
        if action.key == (RECEIVE_MSG, (self.t, self.m)):
            return (state + (action.payload,),)
        if action.key == (SEND_MSG, (self.m, self.r)):
            if state and state[0] == action.payload:
                return (state[1:],)
            return ()
        return ()

    def enabled_local_actions(self, state) -> Iterable[Action]:
        if state:
            yield send_msg(self.m, self.r, state[0])


def build_path():
    t, m, r = "t", "m", "r"
    hop1_tx, hop1_rx = alternating_bit_protocol().build(t, m)
    hop2_tx, hop2_rx = sliding_window_protocol(3).build(m, r)
    components = [
        hop1_tx,
        hop1_rx,
        lossy_fifo_channel(t, m, seed=3, loss_rate=0.35),
        lossy_fifo_channel(m, t, seed=4, loss_rate=0.35),
        Relay(t, m, r),
        hop2_tx,
        hop2_rx,
        lossy_fifo_channel(m, r, seed=5, loss_rate=0.35),
        lossy_fifo_channel(r, m, seed=6, loss_rate=0.35),
    ]
    composition = Composition(components, name="two-hop-path")
    hidden = hide(
        composition,
        packet_families(t, m)
        + packet_families(m, t)
        + packet_families(m, r)
        + packet_families(r, m)
        # The first hop's deliveries and the relay's submissions are
        # internal to the path too -- the end-to-end service is
        # send_msg^{t,m} in, receive_msg^{m,r} out.
        + (action_family(RECEIVE_MSG, t, m), action_family(SEND_MSG, m, r)),
    )
    return hidden


def main() -> None:
    path = build_path()
    factory = MessageFactory()
    messages = factory.fresh_many(8)
    from repro.channels import wake

    inputs = [
        wake("t", "m"),
        wake("m", "t"),
        wake("m", "r"),
        wake("r", "m"),
    ] + [send_msg("t", "m", message) for message in messages]
    fragment = fair_extension(
        path,
        ExecutionFragment.initial(path.initial_state()),
        inputs=inputs,
        max_steps=500_000,
    )
    delivered = [
        a.payload
        for a in fragment.actions
        if a.key == (RECEIVE_MSG, ("m", "r"))
    ]
    print(
        f"nine automata, two lossy hops (35% loss each): delivered "
        f"{len(delivered)}/{len(messages)} messages in {len(fragment)} "
        "steps"
    )
    print(f"in order: {delivered == list(messages)}")

    # End-to-end audit: relabel the path's interface as one data link
    # (sends at (t,m), deliveries at (m,r)) and check the DL properties
    # that make sense end to end (DL3/DL4/DL5/DL6).
    end_to_end = [
        a
        for a in fragment.behavior(path.signature)
        if a.name in (SEND_MSG, RECEIVE_MSG)
    ]
    sent = [a.payload for a in end_to_end if a.name == SEND_MSG]
    received = [a.payload for a in end_to_end if a.name == RECEIVE_MSG]
    print(
        "end-to-end: no duplicates "
        f"{len(set(received)) == len(received)}, no inventions "
        f"{set(received) <= set(sent)}, FIFO "
        f"{received == [m for m in sent if m in set(received)]}"
    )


if __name__ == "__main__":
    main()

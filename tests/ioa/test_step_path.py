"""``Automaton.step`` on a composed system is the fair kernel's view.

A composition (and the hiding of one every ``DataLinkSystem`` runs)
steps by starting its kept :class:`~repro.ioa.composition.ComponentSlices`
view at the state and advancing it.  These tests pin that no scripted
step goes through ``Composition.transitions`` any more, and that the
view's step is the relation's first choice, refusals included, on
states the view has and has not described before.
"""

from __future__ import annotations

import random

import pytest

from repro.alphabets import MessageFactory
from repro.channels.actions import SEND_PKT
from repro.channels.permissive import PermissiveChannel
from repro.conformance.harness import (
    FuzzConfig,
    SubSeeds,
    build_script,
    build_system,
    execute_script,
    resolve_pair,
)
from repro.conformance.registry import FUZZ_CHANNELS, FUZZ_PROTOCOLS
from repro.datalink.actions import receive_msg
from repro.impossibility import refute_bounded_headers, refute_crash_tolerance
from repro.ioa import Action, TransitionError
from repro.ioa.composition import Composition
from repro.protocols import alternating_bit_protocol, modulo_stenning_protocol


def test_refutations_never_enumerate_the_composition(monkeypatch):
    """Every step of both constructions, their probes' inputs included,
    takes the kernel's view rather than the all-successors relation."""
    calls = []
    transitions = Composition.transitions

    def counted(self, state, action):
        calls.append(action)
        return transitions(self, state, action)

    monkeypatch.setattr(Composition, "transitions", counted)
    refute_bounded_headers(modulo_stenning_protocol(16))
    refute_crash_tolerance(alternating_bit_protocol())
    assert calls == []


def _surgeries(system, state):
    """The state after Lemma 6.3 on both channels, and after Lemmas
    6.5-6.7 schedule the t-channel's packets in transit (reversed
    where the channel may reorder).  None on a bounded channel, which
    has no surgeries."""
    if not isinstance(system.channel_tr, PermissiveChannel):
        return []
    channel = system.channel_state(state, system.t)
    waiting = channel.in_transit_indices()
    if system.channel_tr.fifo_only:
        floor = max(channel.delivered_indices(), default=0)
        waiting = tuple(i for i in waiting if i > floor)
    else:
        waiting = waiting[::-1]
    return [
        system.clean_channels(state),
        system.set_waiting(state, system.t, waiting),
    ]


def _assert_steps_agree(automaton, state, action):
    expected = automaton.transitions(state, action)
    if expected:
        assert automaton.step(state, action) == expected[0]
        return
    with pytest.raises(TransitionError) as refused:
        automaton.step(state, action)
    assert str(refused.value) == (
        f"{automaton.name}: action {action} not enabled in state {state!r}"
    )


@pytest.mark.parametrize("channel", sorted(FUZZ_CHANNELS))
@pytest.mark.parametrize("protocol", sorted(FUZZ_PROTOCOLS))
def test_step_is_the_first_transition(protocol, channel):
    config = FuzzConfig(messages=2)
    resolved = resolve_pair(protocol, channel)
    automaton = resolved[0].automaton
    assert automaton.name.startswith("hide(")
    master = random.Random(17)
    factory = MessageFactory(label="x")
    unowned = Action("unowned")
    for _ in range(2):
        subseeds = SubSeeds.derive(master)
        system = build_system(protocol, channel, subseeds, config, resolved)
        script = build_script(system, subseeds, config)
        fragment = execute_script(system, script.actions, subseeds, config).fragment
        for state, action in zip(fragment.states, fragment.actions):
            _assert_steps_agree(automaton, state, action)
        never_sent = receive_msg(system.t, system.r, factory.fresh())
        for state in fragment.states[:: max(1, len(fragment) // 8)]:
            for surgered in [state] + _surgeries(system, state):
                moves = list(automaton.enabled_local_actions(surgered))
                moves += [system.send(factory.fresh()), never_sent, unowned]
                # A send labelled other than the station's next uid, or
                # not at all, is refused, tables or not.
                moves += [
                    move.with_payload(move.payload.with_uid(uid))
                    for move in moves
                    if move.name == SEND_PKT
                    for uid in (move.payload.uid + 1, None)
                ]
                for action in moves:
                    _assert_steps_agree(automaton, surgered, action)

"""Input-enabledness validation wired into the exploration engine."""

from __future__ import annotations

import pytest

from repro.ioa import (
    Action,
    ActionSignature,
    Automaton,
    Composition,
    InputEnablednessError,
    explore,
)

from .toys import Echo, ping


class Deaf(Automaton):
    """Accepts ``poke`` initially, refuses it after one ``advance``."""

    name = "deaf"

    @property
    def signature(self) -> ActionSignature:
        return ActionSignature.make(
            inputs=[("poke", None)], outputs=[("advance", None)]
        )

    def initial_state(self):
        return "listening"

    def transitions(self, state, action):
        if action.name == "poke":
            return (state,) if state == "listening" else ()
        if action.name == "advance" and state == "listening":
            return ("deaf",)
        return ()

    def enabled_local_actions(self, state):
        if state == "listening":
            yield Action("advance")


def offer_poke(state):
    return (Action("poke"),)


class TestValidateGeneric:
    def test_violation_raises(self):
        automaton = Deaf()
        with pytest.raises(InputEnablednessError) as excinfo:
            explore(automaton, environment=offer_poke, validate=True)
        error = excinfo.value
        assert error.automaton is automaton
        assert error.state == "deaf"
        assert error.action.name == "poke"
        assert "not input-enabled" in str(error)

    def test_silent_without_validate(self):
        result = explore(Deaf(), environment=offer_poke)
        assert "deaf" in result.states

    def test_input_enabled_automaton_passes(self):
        result = explore(
            Echo(), environment=lambda _: (ping(1),), max_depth=4,
            validate=True,
        )
        assert result.states


class TestValidateComposition:
    def test_violation_raises_in_composition(self):
        composition = Composition([Deaf()], name="wrapped")
        with pytest.raises(InputEnablednessError) as excinfo:
            explore(
                composition, environment=offer_poke, validate=True
            )
        assert excinfo.value.action.name == "poke"

    def test_clean_composition_passes(self):
        composition = Composition([Echo()], name="wrapped-echo")
        result = explore(
            composition,
            environment=lambda _: (ping(0),),
            max_depth=4,
            validate=True,
        )
        assert result.states

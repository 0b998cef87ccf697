"""Tests for execution fragments, schedules and behaviors (paper 2.2)."""

from __future__ import annotations

import pytest

from repro.ioa import (
    ExecutionFragment,
    TransitionError,
    external_of,
    inputs_of,
    project_schedule,
    replay_schedule,
)
from .reference_execution import is_execution_of, is_valid_for
from .toys import Echo, ping, pong


@pytest.fixture
def echo():
    return Echo()


def run_echo(echo, *actions):
    return replay_schedule(echo, echo.initial_state(), actions)


class TestFragmentBasics:
    def test_initial_fragment(self, echo):
        fragment = ExecutionFragment.initial(())
        assert len(fragment) == 0
        assert fragment.first_state == fragment.final_state == ()

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            ExecutionFragment((1, 2), ())

    def test_append(self, echo):
        fragment = ExecutionFragment.initial(())
        fragment.step(ping(1), (1,))
        assert len(fragment) == 1
        assert fragment.final_state == (1,)
        assert fragment.states == ((), (1,))

    def test_schedule_and_behavior(self, echo):
        fragment = run_echo(echo, ping(1), pong(1))
        assert fragment.schedule() == (ping(1), pong(1))
        # Both actions are external for Echo.
        assert fragment.behavior(echo.signature) == (ping(1), pong(1))

    def test_extend(self, echo):
        fragment = run_echo(echo, ping(1))
        states, actions = fragment.tip()
        states.append(())
        actions.append(pong(1))
        assert fragment.grown() is fragment
        assert fragment.schedule() == (ping(1), pong(1))
        assert fragment.final_state == ()

    def test_prefix_shares_the_lists(self, echo):
        fragment = run_echo(echo, ping(1), ping(2), pong(1))
        assert fragment.prefix(1).schedule() == (ping(1),)
        assert fragment.prefix(0).schedule() == ()
        assert fragment.prefix(3) == fragment
        with pytest.raises(ValueError):
            fragment.prefix(4)
        # Growing a prefix copies the lists the longer fragment holds.
        prefix = fragment.prefix(1)
        prefix.step(ping(3), (1, 3))
        assert prefix.schedule() == (ping(1), ping(3))
        assert fragment.schedule() == (ping(1), ping(2), pong(1))

    def test_equality_compares_contents(self, echo):
        fragment = run_echo(echo, ping(1))
        assert fragment == ExecutionFragment(((), (1,)), (ping(1),))
        assert fragment != ExecutionFragment.initial(())
        with pytest.raises(TypeError):
            hash(fragment)


class TestValidation:
    """The step-by-step reference checkers of Lemmas 2.2 and 2.3."""

    def test_valid_execution(self, echo):
        fragment = run_echo(echo, ping(1), pong(1))
        assert is_valid_for(fragment, echo)
        assert is_execution_of(fragment, echo)

    def test_invalid_step_detected(self, echo):
        bogus = ExecutionFragment(((), (5,)), (pong(5),))
        assert not is_valid_for(bogus, echo)

    def test_non_start_state_not_execution(self, echo):
        fragment = ExecutionFragment.initial((1,))
        assert not is_execution_of(fragment, echo)


class TestReplay:
    def test_replay_raises_on_disabled(self, echo):
        with pytest.raises(TransitionError):
            run_echo(echo, pong(1))  # nothing to echo yet

    def test_replay_fifo_order_enforced(self, echo):
        with pytest.raises(TransitionError):
            run_echo(echo, ping(1), ping(2), pong(2))


class TestScheduleHelpers:
    def test_project_schedule(self, echo):
        from repro.ioa import Action

        foreign = Action("elsewhere")
        schedule = (ping(1), foreign, pong(1))
        assert project_schedule(schedule, echo.signature) == (
            ping(1),
            pong(1),
        )

    def test_inputs_of(self, echo):
        schedule = (ping(1), pong(1))
        assert inputs_of(schedule, echo.signature) == (ping(1),)

    def test_external_of(self, echo):
        schedule = (ping(1), pong(1))
        assert external_of(schedule, echo.signature) == schedule

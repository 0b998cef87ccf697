"""Tests for fair execution and the executable Lemma 2.1."""

from __future__ import annotations

import pytest

from repro.ioa import (
    Action,
    ActionSignature,
    Automaton,
    ExecutionFragment,
    FairnessTimeout,
    apply_inputs,
    fair_extension,
    is_fair_finite,
    run_to_quiescence,
)
from repro.alphabets import Message
from repro.protocols import alternating_bit_protocol
from repro.sim import fifo_system

from .toys import Counter, Echo, ping, pong


class Perpetual(Automaton):
    """An output enabled forever: never quiesces."""

    name = "perpetual"

    @property
    def signature(self) -> ActionSignature:
        return ActionSignature.make(outputs=[("spin", None)])

    def initial_state(self):
        return 0

    def transitions(self, state, action):
        if action.name == "spin":
            return (state + 1,)
        return ()

    def enabled_local_actions(self, state):
        yield Action("spin")


class TwoTask(Automaton):
    """Two independent tasks, each needing service to drain."""

    name = "twotask"

    @property
    def signature(self) -> ActionSignature:
        return ActionSignature.make(
            outputs=[("left", None), ("right", None)]
        )

    def initial_state(self):
        return (3, 3)

    def transitions(self, state, action):
        left, right = state
        if action.name == "left" and left > 0:
            return ((left - 1, right),)
        if action.name == "right" and right > 0:
            return ((left, right - 1),)
        return ()

    def enabled_local_actions(self, state):
        left, right = state
        if left > 0:
            yield Action("left")
        if right > 0:
            yield Action("right")

    def task_of(self, action):
        return (self.name, action.name)

    def tasks(self):
        return [(self.name, "left"), (self.name, "right")]


class TestApplyInputs:
    def test_inputs_applied_in_order(self):
        echo = Echo()
        fragment = apply_inputs(echo, (), [ping(1), ping(2)])
        assert fragment.final_state == (1, 2)

    def test_non_input_rejected(self):
        echo = Echo()
        with pytest.raises(ValueError):
            apply_inputs(echo, (), [pong(1)])


class TestRunToQuiescence:
    def test_counter_drains(self):
        counter = Counter(4)
        fragment = run_to_quiescence(
            counter, ExecutionFragment.initial(counter.initial_state())
        )
        assert fragment.final_state == 0
        assert len(fragment) == 4

    def test_quiescent_start_is_noop(self):
        counter = Counter(0)
        fragment = run_to_quiescence(
            counter, ExecutionFragment.initial(counter.initial_state())
        )
        assert len(fragment) == 0

    def test_round_robin_serves_both_tasks(self):
        automaton = TwoTask()
        fragment = run_to_quiescence(
            automaton, ExecutionFragment.initial(automaton.initial_state())
        )
        names = [a.name for a in fragment.actions]
        # Strict alternation: neither task waits more than one turn.
        assert names[:4] in (["left", "right"] * 2, ["right", "left"] * 2)
        assert fragment.final_state == (0, 0)

    def test_timeout_raises_with_fragment(self):
        automaton = Perpetual()
        with pytest.raises(FairnessTimeout) as info:
            run_to_quiescence(automaton, ExecutionFragment.initial(0), max_steps=10)
        assert len(info.value.fragment) == 10

    def test_quiescing_on_last_allowed_step_returns(self):
        # ABP over FIFO after wake/wake/send needs exactly 5 steps.
        system = fifo_system(alternating_bit_protocol())
        start = system.run_inputs(
            system.initial_state(),
            [system.wake_t(), system.wake_r(), system.send(Message(0))],
        ).final_state
        automaton = system.automaton
        assert len(run_to_quiescence(automaton, ExecutionFragment.initial(start))) == 5
        fragment = run_to_quiescence(
            automaton, ExecutionFragment.initial(start), max_steps=5
        )
        assert len(fragment) == 5
        assert is_fair_finite(system.automaton, fragment)
        with pytest.raises(FairnessTimeout) as info:
            run_to_quiescence(automaton, ExecutionFragment.initial(start), max_steps=4)
        assert len(info.value.fragment) == 4

    def test_zero_budget_on_quiescent_state_returns(self):
        counter = Counter(0)
        fragment = run_to_quiescence(counter, ExecutionFragment.initial(0), max_steps=0)
        assert len(fragment) == 0
        with pytest.raises(FairnessTimeout) as info:
            run_to_quiescence(Counter(1), ExecutionFragment.initial(1), max_steps=0)
        assert len(info.value.fragment) == 0

    def test_stop_when_truncates(self):
        counter = Counter(10)
        fragment = run_to_quiescence(
            counter,
            ExecutionFragment.initial(counter.initial_state()),
            stop_when=lambda a: True,
        )
        assert len(fragment) == 1

    def test_tie_break_override(self):
        automaton = TwoTask()
        fragment = run_to_quiescence(
            automaton,
            ExecutionFragment.initial(automaton.initial_state()),
            tie_break=lambda actions: actions[-1],
        )
        assert fragment.final_state == (0, 0)


class TestFairness:
    def test_quiescent_finite_execution_is_fair(self):
        counter = Counter(2)
        fragment = run_to_quiescence(
            counter, ExecutionFragment.initial(counter.initial_state())
        )
        assert is_fair_finite(counter, fragment)

    def test_non_quiescent_finite_execution_not_fair(self):
        counter = Counter(2)
        fragment = ExecutionFragment.initial(counter.initial_state())
        assert not is_fair_finite(counter, fragment)


class TestFairExtension:
    """Lemma 2.1: any finite execution extends to a fair one, with any
    further inputs."""

    def test_extends_with_inputs_then_drains(self):
        echo = Echo()
        start = ExecutionFragment.initial(())
        fragment = fair_extension(echo, start, inputs=[ping(1), ping(2)])
        assert is_fair_finite(echo, fragment)
        outputs = [a for a in fragment.actions if a.name == "pong"]
        assert [a.payload for a in outputs] == [1, 2]

    def test_extension_preserves_prefix(self):
        echo = Echo()
        prefix = apply_inputs(echo, (), [ping(9)])
        fragment = fair_extension(echo, prefix)
        assert fragment.actions[: len(prefix)] == prefix.actions


class TestTaskNames:
    """The kernel keys tasks by their ``repr``, which is sound only if
    no two distinct tasks of one composition share one."""

    class Twin:
        """Distinct values that print alike."""

        def __init__(self, tag):
            self.tag = tag

        def __eq__(self, other):
            return isinstance(other, type(self)) and other.tag == self.tag

        def __hash__(self):
            return hash(self.tag)

        def __repr__(self):
            return "twin"

    def test_distinct_tasks_sharing_a_repr_raise(self):
        class TwoTasks(Echo):
            def transitions(self, state, action):
                return (state,) if action.name == "pong" else ()

            def enabled_local_actions(self, state):
                yield pong(0)
                yield pong(1)

            def task_of(self, action):
                return TestTaskNames.Twin(action.payload)

        with pytest.raises(ValueError, match="share"):
            run_to_quiescence(TwoTasks(), ExecutionFragment.initial(()), max_steps=3)

    @pytest.mark.parametrize("channel", ["fifo", "nonfifo", "bounded_nonfifo"])
    def test_fuzz_systems_name_every_task_apart(self, channel):
        import random

        from repro.conformance import FuzzConfig, SubSeeds, build_system
        from repro.conformance.registry import FUZZ_PROTOCOLS

        for protocol in sorted(FUZZ_PROTOCOLS):
            subseeds = SubSeeds.derive(random.Random(protocol))
            system = build_system(protocol, channel, subseeds, FuzzConfig())
            tasks = set(system.automaton.tasks())
            assert len({repr(task) for task in tasks}) == len(tasks)

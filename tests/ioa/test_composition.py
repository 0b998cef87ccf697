"""Tests for composition of automata (paper 2.5.2, Lemmas 2.2-2.4)."""

from __future__ import annotations

import pytest

from repro.ioa import (
    Action,
    Composition,
    ExecutionFragment,
    SignatureError,
    replay_schedule,
    run_to_quiescence,
)
from .reference_execution import is_execution_of
from .toys import Counter, Echo, Forwarder, Nondet, ping, pong


@pytest.fixture
def pipeline():
    return Composition([Echo(), Forwarder()], name="pipeline")


class TestConstruction:
    def test_composed_signature(self, pipeline):
        # pong is Echo's output and Forwarder's input -> output of the
        # composition; ping stays an input; ack is an output.
        assert pipeline.signature.is_input(ping(1))
        assert pipeline.signature.is_output(pong(1))
        assert pipeline.signature.is_output(Action("ack", None, 1))

    def test_incompatible_components_rejected(self):
        with pytest.raises(SignatureError):
            Composition([Echo(), Echo()])

    def test_incompatible_error_names_components_and_family(self):
        with pytest.raises(SignatureError) as excinfo:
            Composition([Echo(), Echo()])
        error = excinfo.value
        assert error.kind == "compatibility"
        assert "not strongly compatible" in str(error)
        # The clashing family and both owning components are spelled out.
        assert "('pong', None)" in str(error)
        assert "'echo'" in str(error)

    def test_initial_state_is_vector(self, pipeline):
        assert pipeline.initial_state() == ((), ())

    def test_component_lookup(self, pipeline):
        assert pipeline.component_index("echo") == 0
        assert pipeline.component_index("forwarder") == 1
        with pytest.raises(KeyError):
            pipeline.component_index("nope")

    def test_component_state_access(self, pipeline):
        state = ((1,), (2,))
        assert pipeline.component_state(state, "echo") == (1,)
        patched = pipeline.with_component_state(state, "echo", (9,))
        assert patched == ((9,), (2,))


class TestSteps:
    def test_shared_action_steps_both(self, pipeline):
        state = pipeline.initial_state()
        state = pipeline.step(state, ping(1))
        assert state == ((1,), ())
        # pong(1): output of echo, input of forwarder -- both move.
        state = pipeline.step(state, pong(1))
        assert state == ((), (1,))

    def test_unknown_action_not_enabled(self, pipeline):
        assert pipeline.transitions(pipeline.initial_state(), Action("zzz")) == ()

    def test_disabled_in_one_owner_blocks(self, pipeline):
        # pong(1) requires echo to have 1 queued.
        assert pipeline.transitions(pipeline.initial_state(), pong(1)) == ()

    def test_nondeterministic_component_product(self):
        composed = Composition([Nondet()])
        posts = composed.transitions(
            composed.initial_state(), Action("flip")
        )
        assert set(posts) == {("heads",), ("tails",)}

    def test_enabled_locals_union(self, pipeline):
        state = ((1,), (2,))
        enabled = set(pipeline.enabled_local_actions(state))
        assert enabled == {pong(1), Action("ack", None, 2)}

    def test_task_of_owned_actions(self, pipeline):
        assert pipeline.task_of(pong(1))[0] == 0
        assert pipeline.task_of(Action("ack", None, 3))[0] == 1
        with pytest.raises(KeyError):
            pipeline.task_of(ping(1))

    def test_tasks_enumeration(self, pipeline):
        tasks = list(pipeline.tasks())
        assert len(tasks) == 2


class TestProjection:
    """Lemma 2.2: projections of executions are component executions."""

    def test_projection_is_component_execution(self, pipeline):
        fragment = replay_schedule(
            pipeline,
            pipeline.initial_state(),
            [ping(1), ping(2), pong(1), Action("ack", None, 1), pong(2)],
        )
        echo_part = pipeline.project_execution(fragment, 0)
        forwarder_part = pipeline.project_execution(fragment, 1)
        assert is_execution_of(echo_part, pipeline.components[0])
        assert is_execution_of(forwarder_part, pipeline.components[1])
        # Echo does not see ack actions.
        assert all(a.name != "ack" for a in echo_part.actions)

    def test_project_schedule(self, pipeline):
        schedule = (ping(1), pong(1), Action("ack", None, 1))
        assert pipeline.project_schedule(schedule, 0) == (ping(1), pong(1))
        assert pipeline.project_schedule(schedule, 1) == (
            pong(1),
            Action("ack", None, 1),
        )


class TestFairRuns:
    def test_pipeline_drains_fairly(self, pipeline):
        state = pipeline.step(pipeline.initial_state(), ping(7))
        fragment = run_to_quiescence(
            pipeline, ExecutionFragment.initial(state)
        )
        names = [a.name for a in fragment.actions]
        assert names == ["pong", "ack"]

    def test_independent_counters_both_progress(self):
        # Fairness must serve both components' tasks.
        c1, c2 = Counter(3, tag="tick1"), Counter(5, tag="tick2")
        composed = Composition([c1, c2])
        fragment = run_to_quiescence(
            composed, ExecutionFragment.initial(composed.initial_state())
        )
        assert fragment.final_state == (0, 0)
        assert len(fragment) == 8

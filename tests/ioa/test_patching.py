"""Tests for execution patching (Lemmas 2.3 and 2.4)."""

from __future__ import annotations

import pytest

from repro.ioa import Action, Composition, replay_schedule
from repro.ioa.patching import PatchError, patch_executions, patch_schedules
from .reference_execution import is_execution_of
from .toys import Counter, Echo, Forwarder, ping, pong


def ack(n):
    return Action("ack", None, n)


@pytest.fixture
def pipeline():
    return Composition([Echo(), Forwarder()], name="pipeline")


def component_fragment(component, actions):
    return replay_schedule(component, component.initial_state(), actions)


class TestPatchExecutions:
    def test_basic_patch(self, pipeline):
        echo, forwarder = pipeline.components
        echo_frag = component_fragment(echo, [ping(1), pong(1)])
        fwd_frag = component_fragment(forwarder, [pong(1), ack(1)])
        behavior = [ping(1), pong(1), ack(1)]
        composed = patch_executions(
            pipeline, [echo_frag, fwd_frag], behavior
        )
        assert composed.behavior(pipeline.signature) == tuple(behavior)
        # Projections recover the original fragments (Lemma 2.3's
        # "alpha_i = alpha | A_i").
        assert pipeline.project_execution(composed, 0) == echo_frag
        assert pipeline.project_execution(composed, 1) == fwd_frag

    def test_patch_interleaves_multiple_messages(self, pipeline):
        echo, forwarder = pipeline.components
        echo_frag = component_fragment(
            echo, [ping(1), ping(2), pong(1), pong(2)]
        )
        fwd_frag = component_fragment(
            forwarder, [pong(1), pong(2), ack(1), ack(2)]
        )
        behavior = [ping(1), ping(2), pong(1), pong(2), ack(1), ack(2)]
        composed = patch_executions(
            pipeline, [echo_frag, fwd_frag], behavior
        )
        assert is_execution_of(composed, pipeline)

    def test_patch_with_internal_actions(self):
        # A counter's ticks are internal: patching must flush them even
        # though the behavior never mentions them.
        counter = Counter(2, tag="tick-internal")
        echo = Echo()
        composition = Composition([echo, counter])
        echo_frag = component_fragment(echo, [ping(5), pong(5)])
        counter_frag = replay_schedule(
            counter,
            counter.initial_state(),
            [Action("tick-internal"), Action("tick-internal")],
        )
        composed = patch_executions(
            composition, [echo_frag, counter_frag], [ping(5), pong(5)]
        )
        assert composed.final_state == ((), 0)
        assert len(composed) == 4  # 2 external + 2 internal ticks
        assert is_execution_of(composed, composition)

    def test_mismatched_projection_rejected(self, pipeline):
        echo, forwarder = pipeline.components
        echo_frag = component_fragment(echo, [ping(1), pong(1)])
        fwd_frag = component_fragment(forwarder, [])
        with pytest.raises(PatchError, match="projection"):
            patch_executions(
                pipeline, [echo_frag, fwd_frag], [ping(1), pong(1)]
            )

    def test_wrong_fragment_count_rejected(self, pipeline):
        with pytest.raises(PatchError, match="one fragment per"):
            patch_executions(pipeline, [], [])

    def test_internal_action_in_behavior_rejected(self):
        counter = Counter(1, tag="tock")
        composition = Composition([counter])
        counter_frag = replay_schedule(
            counter, counter.initial_state(), [Action("tock")]
        )
        with pytest.raises(PatchError, match="not external"):
            patch_executions(
                composition, [counter_frag], [Action("tock")]
            )


class TestPatchSchedules:
    def test_schedule_level(self, pipeline):
        composed = patch_schedules(
            pipeline,
            [[ping(1), pong(1)], [pong(1), ack(1)]],
            [ping(1), pong(1), ack(1)],
        )
        assert composed == (ping(1), pong(1), ack(1))

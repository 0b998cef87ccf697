"""The incremental fair-stepping kernel against the loop it replaced.

:func:`reference_run_to_quiescence` is the per-step loop that
:func:`repro.ioa.fairness.run_to_quiescence` used before it kept task
groups across steps: it rebuilds every component's enabled list on every
step and steps the whole automaton by its ``transitions``.  Every test
here runs both on the same inputs and requires the same fragments and
the same exceptions.

The one intended difference is the exact-budget rule: the reference
raises :class:`FairnessTimeout` whenever it used its whole budget, even
when the fragment it carries ends quiescent; the kernel returns that
fragment instead.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, Hashable, List, Optional

import pytest

from repro.conformance.harness import (
    FuzzConfig,
    SubSeeds,
    build_script,
    build_system,
)
from repro.conformance.registry import FUZZ_PROTOCOLS
from repro.ioa import (
    Action,
    ActionSignature,
    Automaton,
    Composition,
    ExecutionFragment,
    FairnessTimeout,
    Hidden,
    TransitionError,
    run_to_quiescence,
)
from repro.ioa.composition import ComponentSlices
from repro.sim.scheduler import seeded_tie_break

from .toys import PONG, Counter, Echo, Forwarder, Nondet, ping


def reference_run_to_quiescence(
    automaton: Automaton,
    record: ExecutionFragment,
    max_steps: int = 100_000,
    stop_when: Optional[Callable[[Action], bool]] = None,
    tie_break: Optional[Callable[[List[Action]], Action]] = None,
) -> ExecutionFragment:
    """The fair executor's former per-step loop, stepping by
    ``transitions`` as :meth:`Automaton.step` then did, on the kernel's
    calling convention: it extends ``record`` and returns it."""
    current = record.final_state
    last_served: Dict[Hashable, int] = {}
    names: Dict[Hashable, str] = {}

    def rank(task: Hashable):
        # Serve the task that has waited longest (never-served tasks
        # first), ties broken by repr -- computed once per task.
        name = names.get(task)
        if name is None:
            name = names[task] = repr(task)
        return (last_served.get(task, -1), name)

    clock = 0
    for _ in range(max_steps):
        enabled = list(automaton.enabled_local_actions(current))
        if not enabled:
            break
        by_task: Dict[Hashable, List[Action]] = {}
        for action in enabled:
            by_task.setdefault(automaton.task_of(action), []).append(action)
        task = min(by_task, key=rank)
        candidates = by_task[task]
        action = tie_break(candidates) if tie_break else candidates[0]
        clock += 1
        last_served[task] = clock
        # By the whole automaton's relation, not Automaton.step, which
        # is the kernel's own view and so no reference for it.
        post = automaton.transitions(current, action)
        if not post:
            raise TransitionError.refused(automaton, current, action)
        current = post[0]
        record.step(action, current)
        if stop_when is not None and stop_when(action):
            break
    else:
        raise FairnessTimeout(record, max_steps)
    return record


def _outcome(run, automaton, state, seed=None, **kwargs):
    if seed is not None:
        kwargs["tie_break"] = seeded_tie_break(seed)
    try:
        record = ExecutionFragment.initial(state)
        return ("fragment", run(automaton, record, **kwargs))
    except FairnessTimeout as exc:
        return ("timeout", exc.fragment, exc.budget)
    except TransitionError as exc:
        return ("refused", str(exc))


def assert_kernel_matches(automaton, state, seed=None, **kwargs):
    """Both executors agree, up to the exact-budget rule."""
    expected = _outcome(
        reference_run_to_quiescence, automaton, state, seed, **kwargs
    )
    if expected[0] == "timeout" and automaton.is_quiescent(
        expected[1].final_state
    ):
        expected = ("fragment", expected[1])
    assert _outcome(run_to_quiescence, automaton, state, seed, **kwargs) == (
        expected
    )
    return expected


def _is_delivery(action: Action) -> bool:
    return action.name == "receive_msg"


def _scripted_states(system, subseeds, config, limit):
    """States a random input script reaches, bursts interleaved.

    The bursts run on the reference loop, so the kernel meets each
    state cold, with task groups kept from whatever it ran before.
    """
    automaton = system.automaton
    rng = random.Random(subseeds.interleave)
    state = system.initial_state()
    states = [state]
    for action in build_script(system, subseeds, config).actions:
        state = automaton.step(state, action)
        states.append(state)
        try:
            burst = reference_run_to_quiescence(
                automaton,
                ExecutionFragment.initial(state),
                max_steps=rng.randrange(4),
            )
        except FairnessTimeout as exc:
            burst = exc.fragment
        state = burst.final_state
        states.append(state)
    return states[:: max(1, len(states) // limit)]


ZOO = sorted(FUZZ_PROTOCOLS)
CHANNELS = ("fifo", "nonfifo", "bounded_nonfifo")


@pytest.mark.parametrize("channel", CHANNELS)
@pytest.mark.parametrize("protocol", ZOO)
def test_zoo_systems_match_reference(protocol, channel):
    config = FuzzConfig(messages=3)
    subseeds = SubSeeds.derive(random.Random(f"{protocol}/{channel}"))
    system = build_system(protocol, channel, subseeds, config)
    automaton = system.automaton
    timeouts = 0
    for state in _scripted_states(system, subseeds, config, limit=6):
        for budget in range(8):
            outcome = assert_kernel_matches(automaton, state, max_steps=budget)
            timeouts += outcome[0] == "timeout"
        assert_kernel_matches(automaton, state, max_steps=2_000)
        assert_kernel_matches(automaton, state, seed=7, max_steps=2_000)
        assert_kernel_matches(
            automaton, state, max_steps=2_000, stop_when=_is_delivery
        )
    assert timeouts, "no budget ran out: the timeout path went untested"


def test_seeded_tie_break_over_multi_candidate_tasks():
    # The bounded channel and the reordering protocols can enable
    # several actions in one task; sweep seeds so picks beyond the first
    # candidate happen.
    config = FuzzConfig(messages=4, reorder_window=3)
    for seed in range(6):
        subseeds = SubSeeds.derive(random.Random(seed))
        system = build_system(
            "selective_repeat", "bounded_nonfifo", subseeds, config
        )
        for state in _scripted_states(system, subseeds, config, limit=4):
            for tie_seed in range(3):
                assert_kernel_matches(
                    system.automaton, state, seed=tie_seed, max_steps=500
                )


class Bag(Automaton):
    """Outputs any held item, all in one task: several candidates."""

    name = "bag"

    @property
    def signature(self) -> ActionSignature:
        return ActionSignature.make(inputs=[("put", None)], outputs=[PONG])

    def initial_state(self):
        return ()

    def transitions(self, state, action):
        if action.name == "put":
            return (state + (action.payload,),)
        if action.name == "pong" and action.payload in state:
            index = state.index(action.payload)
            return (state[:index] + state[index + 1 :],)
        return ()

    def enabled_local_actions(self, state):
        for item in state:
            yield Action("pong", None, item)


class Jammed(Automaton):
    """Enables an output its own transition relation refuses."""

    name = "jammed"

    @property
    def signature(self) -> ActionSignature:
        return ActionSignature.make(outputs=[("stuck", None)])

    def initial_state(self):
        return 0

    def transitions(self, state, action):
        return ()

    def enabled_local_actions(self, state):
        yield Action("stuck")


def _toy_cases():
    echo_pipeline = Composition(
        [Echo(), Forwarder(), Counter(3, "tick"), Counter(2, "tock")]
    )
    echoed = echo_pipeline.initial_state()
    for n in range(4):
        echoed = echo_pipeline.step(echoed, ping(n))
    return [
        ("counter", Counter(5), 5),
        ("echo", Echo(), (1, 2, 3)),
        ("nondet", Nondet(), "start"),
        ("bag", Bag(), (3, 1, 4, 1, 5)),
        ("hidden-echo", Hidden(Echo(), [PONG]), (7, 8)),
        ("pipeline", echo_pipeline, echoed),
        ("hidden-pipeline", Hidden(echo_pipeline, [PONG]), echoed),
    ]


@pytest.mark.parametrize(
    "automaton, state",
    [case[1:] for case in _toy_cases()],
    ids=[case[0] for case in _toy_cases()],
)
def test_toys_match_reference(automaton, state):
    for budget in range(12):
        assert_kernel_matches(automaton, state, max_steps=budget)
        assert_kernel_matches(automaton, state, seed=budget, max_steps=budget)
    assert_kernel_matches(automaton, state, stop_when=lambda a: True)
    assert_kernel_matches(
        automaton, state, tie_break=lambda candidates: candidates[-1]
    )


def test_refused_action_raises_like_reference():
    for automaton in (Jammed(), Hidden(Composition([Jammed(), Echo()]), [])):
        outcome = assert_kernel_matches(
            automaton, automaton.initial_state()
        )
        assert outcome[0] == "refused"


def test_tie_break_receives_tuples():
    seen = []

    def first(candidates):
        seen.append(candidates)
        return candidates[0]

    bag = Bag()
    run_to_quiescence(bag, ExecutionFragment.initial((1, 2)), tie_break=first)
    assert seen and all(isinstance(c, tuple) for c in seen)


class TestReEnumeration:
    """A step re-enumerates only the slices its action's owners moved,
    and a station only when its memo has not seen the slice's key, its
    ghost-free twin's slice."""

    def _counting_system(self):
        config = FuzzConfig(messages=3)
        subseeds = SubSeeds.derive(random.Random(5))
        system = build_system("alternating_bit", "nonfifo", subseeds, config)
        calls: List[int] = []
        for index, component in enumerate(system.composition.components):
            # A tabled station is enumerated through its ghost-free twin.
            if component.table is not None:
                component = component.table.automaton
            original = component.enabled_local_actions

            def counted(piece, index=index, original=original):
                calls.append(index)
                return original(piece)

            component.enabled_local_actions = counted
        return system, build_script(system, subseeds, config), calls

    def test_each_step_enumerates_only_its_owners(self, monkeypatch):
        system, script, calls = self._counting_system()
        automaton = system.automaton
        components = system.composition.components
        owners = system.composition.family_owners
        # The stations carry tables; the seeded channels never do.
        assert [c.table is not None for c in components] == [
            True,
            True,
            False,
            False,
        ]
        batches: List[List[int]] = []

        def cut(action=None):
            # Called once the run's start state is entered and after
            # each step: the calls since the previous cut enumerated the
            # slices the input or that step replaced.
            batches.append(sorted(calls))
            del calls[:]
            return False

        previous = system.initial_state()
        run_to_quiescence(automaton, ExecutionFragment.initial(previous))
        assert sorted(calls) == [0, 1, 2, 3]
        start = ComponentSlices.start

        def started(view, state):
            start(view, state)
            cut()

        monkeypatch.setattr(ComponentSlices, "start", started)
        # The keys each station's table has seen, kept alongside it.
        seen = {i: set(components[i].table.values) for i in (0, 1)}
        steps = hits = 0
        for action in script.actions:
            del calls[:], batches[:]
            # The input's step starts the view at previous, which it
            # already describes, and enumerates the owners' post-slices
            # as it advances; the run's start then has nothing to add.
            state = automaton.step(previous, action)
            fragment = run_to_quiescence(
                automaton, ExecutionFragment.initial(state), stop_when=cut
            )
            assert batches.pop(0) == []
            # Nothing is enumerated after the last step.
            assert calls == []
            # Each state is enumerated only in the slices the input or
            # step before it replaced, and only owners replace slices; a
            # replaced station slice is enumerated iff its memo is cold
            # for the slice's key: a send moves only the ghost counter.
            starts = (previous,) + fragment.states
            moved_by = (action,) + fragment.actions
            assert len(batches) == len(moved_by)
            for batch, before, after, stepped in zip(
                batches, starts, fragment.states, moved_by
            ):
                changed = [i for i in range(4) if after[i] is not before[i]]
                assert set(changed) <= set(owners[stepped.key])
                expected = []
                for i in changed:
                    if i not in seen:
                        expected.append(i)
                        continue
                    key = components[i].split(after[i])[0]
                    if key in seen[i]:
                        hits += 1
                    else:
                        seen[i].add(key)
                        expected.append(i)
                assert batch == expected
            steps += len(fragment)
            previous = fragment.final_state
        assert steps > 20
        assert hits, "no station slice repeated: the memo went untested"
        for i in (0, 1):
            assert set(components[i].table.values) == seen[i]

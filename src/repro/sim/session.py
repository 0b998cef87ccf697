"""Public session façade: one protocol conversation, one ``run()``.

A :class:`Session` bundles everything one data-link conversation needs
-- a composed :class:`~repro.sim.network.DataLinkSystem`, an input
script, and the seeded fair-interleaving knobs -- behind a single
``run()`` entry point.  It is the unit the multi-session load
generator (:mod:`repro.sim.load`) schedules by the thousands, and the
one execution entry point of the library -- the CLI, the experiment
tables and the correctness harness all run scenarios through it:

* ``Session(system, script, seed=...)`` wraps an already-built system;
* ``Session.from_spec("alternating_bit", "fifo", seeds)`` builds the
  whole conversation from fuzz-registry names and a per-session
  :class:`~repro.conformance.harness.SubSeeds` bundle (or a plain
  integer master seed), reusing the conformance harness so a load
  session and a fuzz run are constructed identically.

``run()`` drives the script with seeded interleaving -- after each
input the system runs a random (seeded) number of fair steps before
the next input arrives -- then drains to quiescence.  Every ``run()``
derives a fresh ``random.Random(seed)``, so one Session can be re-run
bit-identically.  ``run(stop_when, checkpoints)`` serves the shrinker:
it can end right after the first action a predicate holds for, and
resume from a :class:`Checkpoints` trie that runs of the same setup
with other scripts left behind; either way the result is the plain
run's, cut at the stop.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from ..ioa.actions import Action
from ..ioa.execution import ExecutionFragment
from ..ioa.fairness import FairnessTimeout, run_to_quiescence
from ..channels.actions import CRASH, FAIL
from ..obs import current_tracer
from .network import DataLinkSystem
from .runner import ScenarioResult, _dropped


@dataclass
class Session:
    """One data-link conversation: system + script + interleaving seed.

    ``max_interleave`` bounds how many fair (locally-controlled) steps
    may run between consecutive inputs; ``max_steps`` bounds the whole
    execution (exhausting it flags the result non-quiescent rather
    than raising, unless the drain quiesced on its last step).  Each
    ``run()`` draws its interleaving from a fresh :class:`random.Random`
    seeded with ``seed``.  ``initial_state`` overrides the
    composition's initial state -- the hook the self-stabilization
    workloads use to start a conversation from a corrupted state.

    ``run()`` draws exactly one slack per input, so input i's burst
    length depends only on ``seed`` and i.  Runs of one setup that
    differ only in their scripts therefore agree up to their first
    differing input, which is what lets ``run(checkpoints=...)``
    resume there.  ``run(stop_when=...)`` runs each burst whole, then
    scans it; the result equals the plain run cut right after the first
    action ``stop_when`` holds for; it is not quiescent, but it is not
    counted as a non-quiescent run either.
    """

    system: DataLinkSystem
    script: Tuple[Action, ...]
    seed: int = 0
    max_interleave: int = 8
    max_steps: int = 200_000
    initial_state: Optional[object] = None

    @classmethod
    def from_spec(
        cls,
        protocol: str,
        channel: str,
        seeds,
        config=None,
        resolved=None,
    ) -> "Session":
        """Build a full session from fuzz-registry names.

        ``seeds`` is a :class:`~repro.conformance.harness.SubSeeds`
        bundle (the four independent randomness sources of one
        conversation) or a plain integer, from which a bundle is
        derived the way the fuzzer derives per-run sub-seeds.
        ``config`` is a :class:`~repro.conformance.harness.FuzzConfig`
        supplying the channel adversary and script knobs (defaults
        apply when omitted); ``resolved`` is a
        :func:`~repro.conformance.harness.resolve_pair` result whose
        stations (and their tables) the session shares with the rest of
        its load run.
        """
        # Lazy: conformance imports sim, so the façade must not import
        # conformance at module scope.
        from ..conformance.harness import (
            FuzzConfig,
            SubSeeds,
            build_script,
            build_system,
        )

        if isinstance(seeds, int):
            seeds = SubSeeds.derive(random.Random(seeds))
        config = config or FuzzConfig()
        system = build_system(
            protocol, channel, seeds, config, resolved=resolved
        )
        script = build_script(system, seeds, config)
        return cls(
            system=system,
            script=tuple(script.actions),
            seed=seeds.interleave,
            max_interleave=config.max_interleave,
            max_steps=config.max_steps,
        )

    def run(
        self,
        stop_when: Optional[Callable[[Action], bool]] = None,
        checkpoints: Optional["Checkpoints"] = None,
    ) -> ScenarioResult:
        """Drive the script with seeded interleaving, drain to quiescence.

        ``stop_when`` is fed every action of the run in order; the run
        ends right after the first action it holds for, and the result
        (not quiescent) is the plain run's cut there.  Each
        input's burst of fair steps runs whole before the predicate
        scans it; the drain hands the predicate to
        :func:`~repro.ioa.fairness.run_to_quiescence`.

        ``checkpoints`` is a :class:`Checkpoints` trie shared by runs
        that differ only in their scripts.  The run resumes from the
        checkpoint after its longest script prefix that an earlier run
        executed, feeds the resumed actions to ``stop_when``, and leaves
        a checkpoint after each input it executes.  Either way the
        result equals the plain run's.
        """
        system = self.system
        automaton = system.automaton
        script = self.script
        rng = random.Random(self.seed)
        slack_bound = self.max_interleave + 1
        if checkpoints is None:
            node, index = None, 0
            states = [self._initial_state()]
            actions = []
        else:
            node, index = checkpoints.deepest(self)
            states = node.states[: node.length + 1]
            actions = node.actions[: node.length]
            # Input i's slack is the seeded RNG's i-th draw.
            for _ in range(index):
                rng.randrange(slack_bound)
        resumed = len(actions)
        fed = 0  # actions before this one have been fed to stop_when
        state = states[-1]
        tracer = current_tracer()
        with tracer.span("sim.scenario", seed=self.seed):
            while True:
                if stop_when is not None:
                    for cut in range(fed, len(actions)):
                        if stop_when(actions[cut]):
                            return self._finish(
                                states[: cut + 2],
                                actions[: cut + 1],
                                False,
                                tracer,
                                stopped=True,
                                resumed=min(resumed, cut + 1),
                            )
                    fed = len(actions)
                budget = self.max_steps - len(actions)
                if index and budget <= 0:
                    return self._finish(
                        states, actions, False, tracer, resumed=resumed
                    )
                if index == len(script):
                    break
                action = script[index]
                index += 1
                with tracer.span("sim.step", action=str(action)):
                    if tracer.enabled:
                        tracer.count("sim.inputs")
                        if action.name == CRASH:
                            tracer.count("sim.crash_injections")
                        elif action.name == FAIL:
                            tracer.count("sim.fail_injections")
                    state = automaton.step(state, action)
                    states.append(state)
                    actions.append(action)
                    slack = rng.randrange(slack_bound)
                    if slack:
                        try:
                            burst = run_to_quiescence(
                                automaton, state, max_steps=slack
                            )
                        except FairnessTimeout as exc:
                            burst = exc.fragment
                        states.extend(burst.states[1:])
                        actions.extend(burst.actions)
                        state = states[-1]
                if node is not None:
                    child = _Checkpoint(states, actions)
                    node.children[action] = child
                    node = child
            hits = []
            watch = None
            if stop_when is not None:

                def watch(action: Action) -> bool:
                    if stop_when(action):
                        hits.append(action)
                        return True
                    return False

            quiescent = True
            try:
                drain = run_to_quiescence(
                    automaton, state, max_steps=budget, stop_when=watch
                )
            except FairnessTimeout as exc:
                drain = exc.fragment
                quiescent = False
            states.extend(drain.states[1:])
            actions.extend(drain.actions)
            return self._finish(
                states,
                actions,
                quiescent and not hits,
                tracer,
                stopped=bool(hits),
                resumed=resumed,
            )

    def _initial_state(self):
        if self.initial_state is not None:
            return self.initial_state
        return self.system.initial_state()

    def _finish(
        self,
        states: list,
        actions: list,
        quiescent: bool,
        tracer,
        stopped: bool = False,
        resumed: int = 0,
    ) -> ScenarioResult:
        """Build the result; emit the packet-level counters when tracing."""
        system = self.system
        fragment = ExecutionFragment(tuple(states), tuple(actions))
        result = ScenarioResult(
            fragment, system.behavior(fragment), quiescent, resumed
        )
        if tracer.enabled:
            from .metrics import channel_stats, delivery_stats

            stats = delivery_stats(fragment, system.t, system.r)
            tracer.count("sim.steps", len(fragment))
            tracer.count("sim.messages_delivered", stats.delivered)
            tracer.count("sim.duplicate_deliveries", stats.duplicates)
            dropped = _dropped(
                channel_stats(fragment, system.t, system.r)
            ) + _dropped(channel_stats(fragment, system.r, system.t))
            tracer.count("sim.packets_dropped", dropped)
            if not quiescent and not stopped:
                tracer.count("sim.nonquiescent_runs")
        return result


class _Checkpoint:
    """The run after one input's burst: a node of :class:`Checkpoints`.

    ``states``/``actions`` are the lists of the run that made the node,
    which only ever grow, so their first ``length`` actions (and
    ``length + 1`` states) are this node's prefix for good.
    """

    __slots__ = ("children", "states", "actions", "length")

    def __init__(self, states: list, actions: list):
        self.children: Dict[Action, "_Checkpoint"] = {}
        self.states = states
        self.actions = actions
        self.length = len(actions)


class Checkpoints:
    """Input-boundary checkpoints of runs that differ only in scripts.

    A trie over script inputs: the node for an input prefix holds the
    run's state, states and actions after that prefix's last burst.
    Runs sharing it must share the system, seed, ``max_interleave``,
    ``max_steps`` and initial state -- then a run's course up to its
    first new input is an earlier run's, since the states are immutable
    and input i's slack is the seed's i-th draw.  The first run binds
    the trie to its setup; a run of another setup raises ``ValueError``.
    """

    __slots__ = ("root", "_setup")

    def __init__(self) -> None:
        self.root: Optional[_Checkpoint] = None
        self._setup: Optional[tuple] = None

    def deepest(self, session: Session) -> Tuple[_Checkpoint, int]:
        """The node of ``session``'s longest executed script prefix,
        and that prefix's length."""
        setup = (session.seed, session.max_interleave, session.max_steps)
        if self.root is None:
            self._setup = (session.system,) + setup
            self.root = _Checkpoint([session._initial_state()], [])
        elif self._setup[0] is not session.system or self._setup[1:] != setup:
            raise ValueError("checkpoints belong to another session setup")
        node, depth = self.root, 0
        for action in session.script:
            child = node.children.get(action)
            if child is None:
                break
            node, depth = child, depth + 1
        return node, depth

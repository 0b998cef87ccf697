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
the next input arrives -- then drains to quiescence.  When ``rng`` is
left unset,
every ``run()`` derives a fresh ``random.Random(seed)``, so one
Session can be re-run bit-identically.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Tuple

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
        stations (and their memos) the session shares with the rest of
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

    def run(self) -> ScenarioResult:
        """Drive the script with seeded interleaving, drain to quiescence."""
        system = self.system
        rng = random.Random(self.seed)
        automaton = system.automaton
        state = (
            self.initial_state
            if self.initial_state is not None
            else system.initial_state()
        )
        # One list per side; the fragment is built once, in _finish.
        states = [state]
        actions = []
        budget = self.max_steps
        tracer = current_tracer()
        with tracer.span("sim.scenario", seed=self.seed):
            for action in self.script:
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
                    slack = rng.randrange(self.max_interleave + 1)
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
                budget = self.max_steps - len(actions)
                if budget <= 0:
                    return self._finish(states, actions, False, tracer)
            quiescent = True
            try:
                drain = run_to_quiescence(automaton, state, max_steps=budget)
            except FairnessTimeout as exc:
                drain = exc.fragment
                quiescent = False
            states.extend(drain.states[1:])
            actions.extend(drain.actions)
            return self._finish(states, actions, quiescent, tracer)

    def _finish(
        self,
        states: list,
        actions: list,
        quiescent: bool,
        tracer,
    ) -> ScenarioResult:
        """Build the result; emit the packet-level counters when tracing."""
        system = self.system
        fragment = ExecutionFragment(tuple(states), tuple(actions))
        result = ScenarioResult(
            fragment, system.behavior(fragment), quiescent
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
            if not quiescent:
                tracer.count("sim.nonquiescent_runs")
        return result

"""Mutant fixtures pinning each stabilization oracle (arXiv:1011.3632).

Each fixture protocol is engineered to violate exactly one of the
SSTAB oracles under the arbitrary-initial-state fuzz mode:

* the **diverger** never quiesces (its transmitter always has a packet
  to push), so only SSTAB-wf fires -- the quiescent-scoped oracles are
  skipped on a truncated run;
* the **never-converger** delivers a ghost message as the *final*
  behavior event, so the behavior has no violation-free suffix at all:
  SSTAB1 fires, and SSTAB2 (which only judges runs that do converge)
  stays silent;
* the **late-converger** delivers its ghost with one real delivery
  still to come, so the run converges -- but past the
  :func:`~repro.conformance.oracles.stabilization_bound`, so exactly
  SSTAB2 fires.
"""

from __future__ import annotations

import dataclasses
from dataclasses import replace
from typing import Iterable

from repro.alphabets import Message, MessageFactory, Packet
from repro.conformance import (
    FUZZ_PROTOCOLS,
    FuzzConfig,
    SubSeeds,
    build_script,
    build_system,
    check_execution,
    component_state_pools,
    corrupt_initial_state,
    fuzz_campaign,
    stabilization_report,
)
from repro.conformance.arbitrary import PROBE_BURST, PROBE_MESSAGES
from repro.datalink.protocol import DataLinkProtocol
from repro.ioa.composition import Composition
from repro.ioa.execution import ExecutionFragment
from repro.ioa.fairness import FairnessTimeout, run_to_quiescence
from repro.protocols.naive import (
    DATA,
    DirectReceiver,
    DirectTransmitter,
    InboxCore,
)

SEEDS = SubSeeds(channel_tr=1, channel_rt=2, script=3, interleave=4)

#: A message no environment script ever sends.
ZOMBIE = Message(-13, "zombie")


class DivergingTransmitter(DirectTransmitter):
    """Always has a packet to push: the system never quiesces."""

    def enabled_sends(self, core):
        if core.awake:
            yield Packet(DATA, (Message(-1, "noise"),))

    def after_send(self, core, packet):
        return core


class NeverConvergingReceiver(DirectReceiver):
    """Delivers a ghost as the final event, after all real traffic.

    ``target`` real deliveries must complete first, so the ghost is
    the last external event of the behavior and no violation-free
    suffix exists (SSTAB1, never SSTAB2).
    """

    target = 3

    def initial_core(self):
        return InboxCore()

    def enabled_deliveries(self, core) -> Iterable[Message]:
        if core.inbox:
            yield core.inbox[0]
        elif core.pending_acks >= self.target and ZOMBIE not in core.inbox:
            yield ZOMBIE

    def on_packet(self, core, packet):
        if packet.header == DATA:
            (message,) = packet.body
            return replace(core, inbox=core.inbox + (message,))
        return core

    def after_delivery(self, core, message):
        if message == ZOMBIE:
            # Consume the ghost budget so it is delivered exactly once.
            return replace(core, pending_acks=-1)
        return replace(
            core,
            inbox=core.inbox[1:],
            pending_acks=core.pending_acks + 1,
        )


class LateConvergingReceiver(NeverConvergingReceiver):
    """Delivers the ghost with one real delivery still pending.

    The run converges (a clean suffix follows the ghost) but only
    after the convergence bound, so exactly SSTAB2 fires.
    """

    target = 5

    def enabled_deliveries(self, core) -> Iterable[Message]:
        if core.pending_acks >= self.target:
            yield ZOMBIE
        elif core.inbox:
            yield core.inbox[0]


def _register(name, transmitter, receiver):
    FUZZ_PROTOCOLS[name] = lambda: DataLinkProtocol(
        name=name.replace("_", "-"),
        transmitter_factory=transmitter,
        receiver_factory=receiver,
        description="stabilization-oracle mutant fixture",
    )


def run_mutant(
    transmitter, receiver, messages, max_steps=6000, seeds=SEEDS
):
    """Execute one clean script and judge it with the SSTAB oracles."""
    from repro.conformance import execute_script, with_mix

    config = dataclasses.replace(
        with_mix(FuzzConfig(), "clean"),
        messages=messages,
        max_steps=max_steps,
        init_mode="arbitrary",
    )
    name = "_stab_mutant"
    _register(name, transmitter, receiver)
    try:
        # Judge a *clean-start* execution: the oracle verdicts must not
        # depend on the corruption machinery, only on the behavior.
        clean_config = dataclasses.replace(config, init_mode="clean")
        system = build_system(name, "perfect", seeds, clean_config)
        script = build_script(system, seeds, config)
        result = execute_script(system, script.actions, seeds, clean_config)
        violations = check_execution(system, result, config)
    finally:
        del FUZZ_PROTOCOLS[name]
    return system, result, violations


def step_walk_pools(system):
    """``component_state_pools``'s walk, each input taken by
    ``Automaton.step``: the reference its pools must equal."""
    seen = [dict.fromkeys([piece]) for piece in system.initial_state()]
    state = system.initial_state()
    factory = MessageFactory(label="g")
    inputs = [system.wake_t(), system.wake_r()] + [
        system.send(factory.fresh()) for _ in range(PROBE_MESSAGES)
    ]
    for action in inputs:
        state = system.automaton.step(state, action)
        try:
            burst = run_to_quiescence(
                system.automaton,
                ExecutionFragment.initial(state),
                max_steps=PROBE_BURST,
            )
        except FairnessTimeout as exc:
            burst = exc.fragment
        for visited in burst.states:
            for pool, piece in zip(seen, visited):
                pool.setdefault(piece)
        state = burst.final_state
    return tuple(tuple(pool) for pool in seen)


class TestMutantFixtures:
    def test_diverger_violates_exactly_sstab_wf(self):
        _, result, violations = run_mutant(
            DivergingTransmitter, DirectReceiver, messages=2, max_steps=2000
        )
        assert not result.quiescent
        assert [v.oracle for v in violations] == ["SSTAB-wf"]

    def test_never_converger_violates_exactly_sstab1(self):
        system, result, violations = run_mutant(
            DirectTransmitter, NeverConvergingReceiver, messages=3
        )
        assert result.quiescent
        report = stabilization_report(result.behavior, system.t, system.r)
        assert not report.converged
        assert report.time == report.length
        assert [v.oracle for v in violations] == ["SSTAB1"]

    def test_late_converger_violates_exactly_sstab2(self):
        system, result, violations = run_mutant(
            DirectTransmitter, LateConvergingReceiver, messages=6
        )
        assert result.quiescent
        report = stabilization_report(result.behavior, system.t, system.r)
        assert report.converged
        assert report.time > 8
        assert [v.oracle for v in violations] == ["SSTAB2"]

    def test_honest_protocol_passes_all_stab_oracles(self):
        _, result, violations = run_mutant(
            DirectTransmitter, DirectReceiver, messages=3
        )
        assert result.quiescent
        assert violations == []


class TestCorruption:
    def test_corruption_is_deterministic(self):
        config = dataclasses.replace(FuzzConfig(), init_mode="arbitrary")
        system = build_system("alternating_bit", "fifo", SEEDS, config)
        a = corrupt_initial_state(system, SEEDS)
        b = corrupt_initial_state(
            build_system("alternating_bit", "fifo", SEEDS, config), SEEDS
        )
        assert a == b

    def test_corruption_draws_locally_reachable_slices(self):
        config = dataclasses.replace(FuzzConfig(), init_mode="arbitrary")
        system = build_system("alternating_bit", "fifo", SEEDS, config)
        corrupted = corrupt_initial_state(system, SEEDS)
        assert len(corrupted) == len(system.automaton.initial_state())

    def test_pool_walk_steps_inputs_through_the_kernel_view(
        self, monkeypatch
    ):
        """The probe walk's pools equal those of the same walk stepped
        with ``Automaton.step``, and it makes no ``Composition.transitions``
        call: its inputs step the tabled stations by slice id."""
        config = dataclasses.replace(FuzzConfig(), init_mode="arbitrary")
        system = build_system(
            "alternating_bit", "bounded_nonfifo", SEEDS, config
        )
        calls = []
        transitions = Composition.transitions

        def counted(self, state, action):
            calls.append(action)
            return transitions(self, state, action)

        monkeypatch.setattr(Composition, "transitions", counted)
        pools = component_state_pools(system)
        monkeypatch.undo()
        assert calls == []
        assert pools == step_walk_pools(system)

    def test_different_subseeds_vary_the_corruption(self):
        config = dataclasses.replace(FuzzConfig(), init_mode="arbitrary")
        system = build_system("alternating_bit", "fifo", SEEDS, config)
        states = {
            corrupt_initial_state(
                system, SubSeeds(s * 4 + 1, s * 4 + 2, s * 4 + 3, s * 4 + 4)
            )
            for s in range(8)
        }
        assert len(states) > 1


class TestArbitraryCampaign:
    def test_abp_campaign_measures_stabilization(self):
        config = dataclasses.replace(
            FuzzConfig(),
            runs=4,
            messages=4,
            max_steps=4000,
            init_mode="arbitrary",
            shrink=False,
        )
        campaign = fuzz_campaign("alternating_bit", "bounded_nonfifo", 7, config)
        assert all(
            run.stabilization_time is not None for run in campaign.runs
        )
        report = campaign.report()
        assert "stabilization" in report.details
        assert report.counters["fuzz.stab.measured_runs"] == 4
        # Only the stabilization family judges arbitrary-mode runs.
        for violation in campaign.violations:
            assert violation.violation.oracle.startswith("SSTAB")

    def test_campaign_is_worker_count_invariant(self):
        import json

        config = dataclasses.replace(
            FuzzConfig(),
            runs=4,
            messages=4,
            max_steps=4000,
            init_mode="arbitrary",
            shrink=False,
        )
        reports = []
        for workers in (1, 2):
            campaign = fuzz_campaign(
                "alternating_bit", "bounded_nonfifo", 7, config, workers=workers
            )
            report = campaign.report()
            report.duration_s = 0.0
            report.details.pop("pool", None)
            reports.append(json.dumps(report.to_dict(), sort_keys=True))
        assert reports[0] == reports[1]

    def test_stabilization_report_is_computed_once_per_check(
        self, monkeypatch
    ):
        # One report per run, reused by the SSTAB1/SSTAB2 verdicts, the
        # gauges and the run record; one per shrink candidate's check.
        from repro.conformance import arbitrary, oracles

        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return stabilization_report(*args, **kwargs)

        monkeypatch.setattr(arbitrary, "stabilization_report", counting)
        monkeypatch.setattr(oracles, "stabilization_report", counting)
        config = FuzzConfig(
            runs=5, init_mode="arbitrary", messages=4, max_steps=4000
        )
        campaign = fuzz_campaign("alternating_bit", "bounded_nonfifo", 3, config)
        shrink_checks = sum(v.shrink.attempts for v in campaign.violations)
        assert campaign.violations and shrink_checks
        assert len(calls) == config.runs + shrink_checks

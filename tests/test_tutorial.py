"""Executable form of docs/tutorial.md: every claim there is tested here.

The NAK protocol below is the tutorial's verbatim example; each section
of the tutorial corresponds to one test.  If these tests pass, the
tutorial's code and claims are accurate.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Tuple


from repro.alphabets import Message, Packet
from repro.analysis import render_msc, verify_delivery_order
from repro.datalink import (
    DataLinkProtocol,
    ReceiverLogic,
    TransmitterLogic,
    check_crashing,
    check_message_independence,
    check_over_lossy_fifo,
    check_over_reordering,
    probe_k_bound,
)
from repro.impossibility import (
    refute_bounded_headers,
    refute_crash_tolerance,
)


@dataclass(frozen=True)
class TxCore:
    bit: int = 0
    queue: Tuple[Message, ...] = ()
    awake: bool = False


class NakTransmitter(TransmitterLogic):
    def initial_core(self):
        return TxCore()

    def on_wake(self, core):
        return replace(core, awake=True)

    def on_fail(self, core):
        return replace(core, awake=False)

    def on_send_msg(self, core, message):
        return replace(core, queue=core.queue + (message,))

    def on_packet(self, core, packet):
        kind, bit = packet.header
        if not core.queue:
            return core
        if kind == "OK" and bit == core.bit:
            return replace(core, bit=core.bit ^ 1, queue=core.queue[1:])
        if kind == "NAK" and bit == core.bit ^ 1:
            # The receiver already expects the next bit: our current
            # message must have been delivered -- an implicit ack.
            return replace(core, bit=core.bit ^ 1, queue=core.queue[1:])
        return core

    def enabled_sends(self, core) -> Iterable[Packet]:
        if core.awake and core.queue:
            yield Packet(("MSG", core.bit), (core.queue[0],))

    def after_send(self, core, packet):
        return core

    def header_space(self):
        return frozenset({("MSG", 0), ("MSG", 1)})


@dataclass(frozen=True)
class RxCore:
    expected: int = 0
    inbox: Tuple[Message, ...] = ()
    replies: Tuple[Tuple[str, int], ...] = ()
    awake: bool = False


class NakReceiver(ReceiverLogic):
    def initial_core(self):
        return RxCore()

    def on_wake(self, core):
        return replace(core, awake=True)

    def on_fail(self, core):
        return replace(core, awake=False)

    def on_packet(self, core, packet):
        kind, bit = packet.header
        if kind != "MSG":
            return core
        if bit == core.expected:
            (message,) = packet.body
            core = replace(
                core,
                expected=core.expected ^ 1,
                inbox=core.inbox + (message,),
            )
            reply = ("OK", bit)
        else:
            reply = ("NAK", core.expected)
        return replace(core, replies=(core.replies + (reply,))[-4:])

    def enabled_sends(self, core) -> Iterable[Packet]:
        if core.awake and core.replies:
            yield Packet(core.replies[0])

    def after_send(self, core, packet):
        return replace(core, replies=core.replies[1:])

    def enabled_deliveries(self, core) -> Iterable[Message]:
        if core.inbox:
            yield core.inbox[0]

    def after_delivery(self, core, message):
        return replace(core, inbox=core.inbox[1:])

    def header_space(self):
        return frozenset({("OK", 0), ("OK", 1), ("NAK", 0), ("NAK", 1)})


def nak_protocol() -> DataLinkProtocol:
    return DataLinkProtocol(
        name="nak-abp",
        transmitter_factory=NakTransmitter,
        receiver_factory=NakReceiver,
        description="alternating bit with explicit negative acks",
    )


class TestSection2Hypotheses:
    def test_hypothesis_checks(self):
        protocol = nak_protocol()
        assert check_message_independence(protocol).independent
        assert check_crashing(protocol).crashing
        assert protocol.has_bounded_headers()
        assert len(protocol.header_space()) == 6
        assert probe_k_bound(protocol).k == 1


class TestSection3Simulation:
    def test_fine_over_fifo(self):
        assert check_over_lossy_fifo(
            nak_protocol(), loss_rate=0.4, seeds=range(5)
        ).ok

    def test_breaks_over_reordering(self):
        assert not check_over_reordering(
            nak_protocol(), seeds=range(4), max_steps=50_000
        ).ok


class TestSection4Engines:
    def test_both_engines_defeat_it(self):
        crash_cert = refute_crash_tolerance(nak_protocol())
        header_cert = refute_bounded_headers(nak_protocol())
        assert crash_cert.validate()
        assert header_cert.validate()


class TestSection5Exhaustive:
    def test_verified_over_fifo(self):
        result = verify_delivery_order(
            nak_protocol(), messages=2, capacity=2
        )
        assert result.ok and result.exhaustive

    def test_counterexample_under_reordering(self):
        broken = verify_delivery_order(
            nak_protocol(), messages=2, capacity=3, reorder_depth=2
        )
        assert not broken.ok
        chart = render_msc(broken.counterexample)
        assert "receive_msg" in chart


class TestSection5Backends:
    """Mirrors the compiled-core subsection verbatim."""

    def test_default_matches_the_reference(self):
        from repro.analysis import build_closed_system
        from repro.ioa import explore
        from repro.protocols import alternating_bit_protocol
        from tests.ioa.reference_explorer import reference_explore

        system, invariant, _ = build_closed_system(
            alternating_bit_protocol(), messages=3, capacity=3
        )
        fast = explore(system, invariant=invariant)
        oracle = reference_explore(system, invariant=invariant)
        assert fast.states == oracle.states
        assert not fast.truncated
        # Lazy set views answer membership without materializing.
        assert system.initial_state() in fast.states

    def test_fallback_is_none_when_the_core_ran(self):
        from repro.analysis import build_closed_system
        from repro.ioa import explore
        from repro.ioa.engine.accel import accel_backend_id
        from repro.protocols import alternating_bit_protocol

        system, invariant, _ = build_closed_system(
            alternating_bit_protocol(), messages=2, capacity=2
        )
        fast = explore(system, invariant=invariant)
        assert (fast.fallback is None) == (accel_backend_id() is not None)
        # validate=True goes to the engine by design: no fallback.
        checked = explore(system, invariant=invariant, validate=True)
        assert checked.fallback is None
        assert checked.states == fast.states


class TestSection8Lint:
    def test_nak_protocol_lints_clean(self):
        from repro.lint import lint_targets, target_from

        report = lint_targets([target_from(nak_protocol())])
        assert report.ok, report.render_text()


class TestSection9Observability:
    """Mirrors the section-9 crash-storm trace walkthrough verbatim."""

    def test_crash_storm_trace_walkthrough(self, tmp_path):
        from repro.obs import RunManifest, read_events, trace_run
        from repro.protocols import alternating_bit_protocol
        from repro.sim import FaultPlan, Session, fifo_system, generate_script

        path = str(tmp_path / "abp_crash.jsonl")
        system = fifo_system(alternating_bit_protocol())
        plan = FaultPlan(messages=6, crash_probability=0.9, seed=1)
        script = generate_script(system, plan)
        with trace_run(
            path,
            command="simulate",
            protocol="alternating-bit",
            seed=1,
            config={"messages": 6, "crash_probability": 0.9},
        ):
            result = Session(system, tuple(script.actions), seed=1).run()

        events = read_events(path)
        manifest = RunManifest.find(events)
        assert manifest.counters["sim.steps"] == result.steps
        assert manifest.counters["sim.crash_injections"] >= 1
        # Theorem 7.5 measured: a crashing protocol loses messages.
        assert manifest.counters["sim.messages_delivered"] < 6

    def test_crash_steps_are_visible_in_context(self, tmp_path):
        from repro.obs import read_events, trace_run
        from repro.protocols import alternating_bit_protocol
        from repro.sim import FaultPlan, Session, fifo_system, generate_script

        path = str(tmp_path / "abp_crash.jsonl")
        system = fifo_system(alternating_bit_protocol())
        plan = FaultPlan(messages=6, crash_probability=0.9, seed=1)
        script = generate_script(system, plan)
        with trace_run(path, command="simulate"):
            Session(system, tuple(script.actions), seed=1).run()
        events = read_events(path)
        crash_steps = [
            e
            for e in events
            if e.kind == "span_start"
            and e.name == "sim.step"
            and "crash" in e.fields.get("action", "")
        ]
        assert crash_steps


class TestSection10Fuzzing:
    """Mirrors tutorial section 10: the fuzzing walkthrough."""

    def campaign(self):
        from repro.conformance import FuzzConfig, fuzz_campaign

        return fuzz_campaign("naive", "nonfifo", 7, FuzzConfig(runs=1))

    def test_worked_shrink_numbers(self):
        campaign = self.campaign()
        violation = campaign.violations[0]
        assert violation.violation.oracle == "DL4"
        assert violation.shrink.original_length == 8
        assert violation.shrunk_length == 3
        # wake_t . wake_r . send_msg(s0) is the locally-minimal core.
        assert [a.name for a in violation.shrink.actions] == [
            "wake",
            "wake",
            "send_msg",
        ]
        assert "received at events" in violation.violation.witness

    def test_replay_file_reproduces(self, tmp_path):
        from repro.conformance import replay, save_repro

        campaign = self.campaign()
        path = save_repro(
            tmp_path / "repro.json", campaign.violations[0].repro
        )
        outcome = replay(path)
        assert outcome.reproduced
        assert outcome.oracle == "DL4"

    def test_abp_is_acquitted_over_fifo(self):
        from repro.conformance import FuzzConfig, fuzz_campaign

        campaign = fuzz_campaign(
            "alternating_bit", "fifo", 7, FuzzConfig(runs=3)
        )
        assert campaign.violations == []
        assert campaign.report().status == "ok"

    def test_default_mix_injects_no_crashes(self):
        # Theorem 7.5: crashes legitimately defeat crashing protocols,
        # so a default-campaign crash conviction would prove nothing.
        from repro.conformance import FuzzConfig

        assert FuzzConfig().crash_probability == 0.0


class TestSection12Load:
    """Mirrors tutorial section 12: the load-generation walkthrough."""

    def result(self, workers=1):
        from repro.sim.load import LoadConfig, run_load

        return run_load(
            "alternating_bit", "fifo", 0, LoadConfig(sessions=500),
            workers=workers,
        )

    def test_worked_run_numbers(self):
        report = self.result().report()
        assert report.status == "ok"
        assert report.counters["load.sessions"] == 500
        assert report.counters["load.messages_delivered"] == 2000
        assert report.counters["load.messages_sent"] == 2000
        assert report.counters["load.duplicate_deliveries"] == 0
        assert report.counters["load.steps"] == 23495
        assert report.counters["load.packets_dropped"] == 1977
        latency = report.details["latency"]
        assert latency["count"] == 2000
        assert (latency["p50"], latency["p95"], latency["p99"]) == (10, 32, 42)
        assert latency["max"] == 56
        ratio = report.details["delivery_ratio"]
        assert (ratio["p50"], ratio["p99"], ratio["min"]) == (1.0, 1.0, 1.0)

    def test_workers_identity_as_documented(self):
        from repro.sim.load import normalized_report

        serial = normalized_report(self.result(workers=1).report().to_dict())
        pooled = normalized_report(self.result(workers=2).report().to_dict())
        assert serial == pooled

    def test_mix_vocabulary_shared_with_fuzz(self):
        from repro.conformance.harness import FAULT_MIXES
        from repro.sim.load import LoadConfig, run_load, with_load_mix

        for mix in ("clean", "drop-flood", "reorder-flood", "crash-storm"):
            assert mix in FAULT_MIXES
            assert with_load_mix(LoadConfig(), mix).mix == mix
        for mix in FAULT_MIXES:
            config = with_load_mix(LoadConfig(sessions=2), mix)
            assert config.mix == mix
            result = run_load("alternating_bit", "fifo", 0, config)
            assert [s.index for s in result.sessions] == [0, 1]
            assert result.failed_sessions == 0
            assert result.report().details["mix"] == mix

    def test_traced_run_carries_gauges(self):
        from repro.obs import MemorySink, tracing
        from repro.sim.load import LoadConfig, run_load

        sink = MemorySink()
        with tracing(sink) as tracer:
            run_load("alternating_bit", "fifo", 0, LoadConfig(sessions=5))
            assert tracer.gauges["load.sessions_done"] == 5
            assert tracer.gauges["load.sessions_active"] == 0
        names = {event.name for event in sink.events}
        assert "load.session" in names
        # The shard layout follows the batch size, not the stream.
        assert "load.shard.sessions" not in names
        assert tracer.counters["load.sessions"] == 5


class TestSection13Stabilization:
    """Mirrors tutorial section 13: the self-stabilization walkthrough."""

    def config(self, **overrides):
        import dataclasses

        from repro.conformance import FuzzConfig

        return dataclasses.replace(
            FuzzConfig(),
            init_mode="arbitrary",
            messages=4,
            max_steps=4000,
            **overrides,
        )

    def test_corruption_perturbs_the_transmitter_as_documented(self):
        import dataclasses

        from repro.conformance import SubSeeds, build_system, corrupt_initial_state

        seeds = SubSeeds(channel_tr=1, channel_rt=2, script=3, interleave=4)
        config = self.config()
        clean_system = build_system(
            "alternating_bit",
            "bounded_nonfifo",
            seeds,
            dataclasses.replace(config, init_mode="clean"),
        )
        system = build_system("alternating_bit", "bounded_nonfifo", seeds, config)
        clean = clean_system.initial_state()
        corrupted = system.initial_state()
        assert corrupted == corrupt_initial_state(clean_system, seeds, config)
        assert corrupted != clean
        tx = clean[0]
        assert (tx.core.bit, tx.core.awake, tx.uid_counter) == (0, False, 0)
        tx = corrupted[0]
        assert (tx.core.bit, tx.core.awake, tx.uid_counter) == (1, True, 6)

    def test_worked_single_run_stabilizes_immediately(self):
        from repro.conformance import (
            SubSeeds,
            build_script,
            build_system,
            execute_script,
            stabilization_report,
        )

        seeds = SubSeeds(channel_tr=1, channel_rt=2, script=3, interleave=4)
        config = self.config()
        system = build_system("alternating_bit", "bounded_nonfifo", seeds, config)
        script = build_script(system, seeds, config)
        result = execute_script(system, script.actions, seeds, config)
        assert result.quiescent
        report = stabilization_report(result.behavior, system.t, system.r)
        assert (report.length, report.time, report.converged) == (9, 0, True)

    def test_worked_campaign_numbers(self):
        from repro.conformance import fuzz_campaign

        campaign = fuzz_campaign(
            "alternating_bit",
            "bounded_nonfifo",
            3,
            self.config(runs=5),
        )
        convictions = [
            (v.run_index, v.violation.oracle) for v in campaign.violations
        ]
        assert convictions == [(0, "SSTAB2"), (1, "SSTAB2"), (4, "SSTAB2")]
        assert "stabilization_time 9 exceeds the convergence bound 8" in (
            campaign.violations[0].violation.witness
        )
        stab = campaign.report().details["stabilization"]
        assert (stab["p50"], stab["p95"], stab["p99"], stab["max"]) == (
            9, 15, 15, 15,
        )
        assert stab["measured_runs"] == stab["converged_runs"] == 5
        # The shrinker tightens the run-0 script as documented.
        first = campaign.violations[0]
        assert (first.script_length, first.shrunk_length) == (6, 5)

    def test_repro_file_replays_the_sstab2_conviction(self, tmp_path):
        from repro.conformance import fuzz_campaign, replay, save_repro

        campaign = fuzz_campaign(
            "alternating_bit", "bounded_nonfifo", 3, self.config(runs=1)
        )
        path = save_repro(
            tmp_path / "repro.json", campaign.violations[0].repro
        )
        outcome = replay(path)
        assert outcome.reproduced
        assert outcome.oracle == "SSTAB2"

    def test_zoo_protocols_decline_the_self_stabilizing_claim(self):
        from repro.conformance import FUZZ_PROTOCOLS
        from repro.lint.claims import parse_claims

        for name in sorted(FUZZ_PROTOCOLS):
            claims = parse_claims(FUZZ_PROTOCOLS[name]().claims)
            assert claims.self_stabilizing is False, name

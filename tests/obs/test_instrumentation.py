"""The engines' instrumentation agrees with their results."""

from __future__ import annotations

import pytest

from repro.obs import MemorySink, tracing


def abp_closed_system(messages=2, capacity=2):
    from repro.analysis.model_check import build_closed_system
    from repro.protocols import alternating_bit_protocol

    composition, invariant, _ = build_closed_system(
        alternating_bit_protocol(), messages=messages, capacity=capacity
    )
    return composition, invariant


def counter_automaton():
    """A plain (non-composed) automaton: the search walks its states."""
    from ..ioa.toys import Counter

    return Counter(5), None


#: Both node spaces of the engine's one search loop: an interned
#: composition and a plain automaton.
SYSTEMS = (abp_closed_system, counter_automaton)


class TestExploreInstrumentation:
    def test_state_counter_matches_result(self):
        from repro.ioa import explore

        for system in SYSTEMS:
            automaton, invariant = system()
            with tracing(MemorySink()) as tracer:
                result = explore(automaton, invariant=invariant)
            totals = tracer.snapshot_counters()
            assert totals["explore.states"] == len(result.states), system
            assert (
                totals["explore.transitions"] >= len(result.states) - 1
            ), system

    def test_layer_spans_and_frontier_gauge(self):
        from repro.ioa.engine import explore_engine

        for system in SYSTEMS:
            automaton, invariant = system()
            sink = MemorySink()
            with tracing(sink) as tracer:
                explore_engine(automaton, invariant=invariant)
            spans = [
                e for e in sink.events
                if e.kind == "span_start" and e.name == "explore.layer"
            ]
            assert spans, system
            assert spans[0].fields["depth"] == 0
            assert spans[0].fields["width"] == 1
            assert "explore.frontier" in tracer.gauges, system

    def test_memo_statistics_emitted_for_compositions(self):
        from repro.ioa.engine import explore_engine

        composition, invariant = abp_closed_system()
        with tracing(MemorySink()) as tracer:
            explore_engine(composition, invariant=invariant)
        totals = tracer.snapshot_counters()
        assert totals["explore.memo_queries"] > 0
        assert totals["explore.memo_hits"] <= totals["explore.memo_queries"]
        assert 0.0 <= tracer.gauges["explore.memo_hit_rate"] <= 1.0
        assert totals["explore.slices_interned"] > 0

    def test_compiled_core_spans_its_search(self):
        from repro.ioa import explore
        from repro.ioa.engine.accel import accel_backend_id

        if accel_backend_id() is None:
            pytest.skip("no C compiler for the compiled core")
        composition, invariant = abp_closed_system()
        sink = MemorySink()
        with tracing(sink) as tracer:
            result = explore(composition, invariant=invariant)
        spans = [
            e.name for e in sink.events if e.kind == "span_start"
        ]
        assert spans == ["explore.accel"]
        totals = tracer.snapshot_counters()
        assert totals["explore.states"] == len(result.states)
        assert totals["explore.accel_steps"] > 0

    def test_backends_count_a_violating_search_alike(self):
        # The search stops inside the layer that reached the violation;
        # that layer's states and transitions must still be counted.
        from repro.analysis.model_check import build_closed_system
        from repro.ioa.engine import explore_engine
        from repro.ioa.engine.accel import accel_backend_id, explore_accel
        from repro.protocols import eager_protocol

        backends = [explore_engine]
        if accel_backend_id() is not None:
            backends.append(explore_accel)
        counted = []
        for backend in backends:
            composition, invariant, _ = build_closed_system(
                eager_protocol(), messages=2, capacity=2
            )
            with tracing(MemorySink()) as tracer:
                result = backend(composition, invariant=invariant)
            assert not result.ok
            totals = tracer.snapshot_counters()
            assert totals["explore.states"] == len(result.states), backend
            counted.append(
                (totals["explore.states"], totals["explore.transitions"])
            )
        assert len(set(counted)) == 1, counted


class TestSimInstrumentation:
    def test_step_counter_matches_result(self):
        from repro.protocols import alternating_bit_protocol
        from repro.sim import FaultPlan, Session, fifo_system, generate_script

        system = fifo_system(alternating_bit_protocol())
        script = generate_script(system, FaultPlan(messages=3, seed=2))
        sink = MemorySink()
        with tracing(sink) as tracer:
            result = Session(system, tuple(script.actions), seed=2).run()
        totals = tracer.snapshot_counters()
        assert totals["sim.steps"] == result.steps
        assert totals["sim.messages_delivered"] == 3
        assert any(
            e.kind == "span_start" and e.name == "sim.scenario"
            for e in sink.events
        )
        assert any(
            e.kind == "span_start" and e.name == "sim.step"
            for e in sink.events
        )

    def test_crash_injections_counted(self):
        from repro.protocols import alternating_bit_protocol
        from repro.sim import FaultPlan, Session, fifo_system, generate_script

        system = fifo_system(alternating_bit_protocol())
        plan = FaultPlan(messages=6, crash_probability=0.9, seed=1)
        script = generate_script(system, plan)
        with tracing(MemorySink()) as tracer:
            Session(system, tuple(script.actions), seed=1).run()
        assert tracer.snapshot_counters().get("sim.crash_injections", 0) > 0


def span_counts(sink):
    counts = {}
    for event in sink.events:
        if event.kind == "span_start":
            counts[event.name] = counts.get(event.name, 0) + 1
    return counts


class TestRefuteInstrumentation:
    def test_crash_engine_spans_and_counters(self):
        from repro.impossibility import refute_crash_tolerance
        from repro.protocols import alternating_bit_protocol

        sink = MemorySink()
        with tracing(sink) as tracer:
            refute_crash_tolerance(alternating_bit_protocol())
        totals = tracer.snapshot_counters()
        assert totals["refute.crash_injections"] >= 1
        assert totals["refute.replayed_steps"] >= 1
        names = {
            e.name for e in sink.events if e.kind == "span_start"
        }
        assert "refute.crash" in names
        assert "refute.round" in names

    def test_header_engine_spans_and_counters(self):
        from repro.impossibility import refute_bounded_headers
        from repro.protocols import modulo_stenning_protocol

        sink = MemorySink()
        with tracing(sink) as tracer:
            refute_bounded_headers(modulo_stenning_protocol(2))
        totals = tracer.snapshot_counters()
        assert totals["refute.pump_rounds"] >= 1
        names = {
            e.name for e in sink.events if e.kind == "span_start"
        }
        assert "refute.headers" in names
        assert "refute.round" in names

    def test_header_engine_spans_each_lemma(self):
        """One probe (Lemma 8.3) and one try at the map f (Lemma 6.7)
        per round, one pump (Lemma 8.4) per pumping round, and one
        receiver replay (Theorem 8.5), all inside ``refute.headers``."""
        from repro.impossibility import refute_bounded_headers
        from repro.protocols import modulo_stenning_protocol

        sink = MemorySink()
        with tracing(sink):
            certificate = refute_bounded_headers(modulo_stenning_protocol(4))
        rounds = certificate.stats["pump_rounds"]
        counts = span_counts(sink)
        assert counts == {
            "refute.headers": 1,
            "refute.round": rounds + 1,
            "refute.probe": rounds + 1,
            "refute.inject": rounds + 1,
            "refute.pump": rounds,
            "refute.replay": 1,
        }

    def test_crash_engine_spans_each_lemma(self):
        """Reference alpha (Lemmas 4.1, 6.3), the chain (7.3), one
        crash-and-replay per level (7.2), the end state (7.4) and, when
        the fair extension delivers, the map back onto alpha (7.1)."""
        from repro.impossibility import refute_crash_tolerance
        from repro.protocols import alternating_bit_protocol, eager_protocol

        for factory, mapped in (
            (alternating_bit_protocol, False),
            (eager_protocol, True),
        ):
            sink = MemorySink()
            with tracing(sink):
                certificate = refute_crash_tolerance(factory())
            levels = certificate.stats["pump_levels"]
            expected = {
                "refute.crash": 1,
                "refute.reference": 1,
                "refute.chain": 1,
                "refute.round": levels,
                "refute.crash_replay": levels,
                "refute.end_state": 1,
            }
            if mapped:
                expected["refute.map_back"] = 1
            assert span_counts(sink) == expected, factory

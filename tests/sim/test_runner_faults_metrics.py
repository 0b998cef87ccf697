"""Tests for the simulation runner, fault scripts and metrics."""

from __future__ import annotations

import pytest

from repro.alphabets import MessageFactory
from repro.datalink import dl2, dl3, dl_well_formed
from repro.protocols import (
    alternating_bit_protocol,
    stenning_protocol,
)
from repro.sim import (
    FaultPlan,
    Session,
    channel_stats,
    crash_storm,
    delivery_stats,
    distinct_headers_used,
    fifo_system,
    generate_script,
)

from ..conftest import deliver_all


class TestFaultScripts:
    def test_script_starts_with_wakes(self):
        system = fifo_system(alternating_bit_protocol())
        script = generate_script(system, FaultPlan(messages=5, seed=1))
        assert script.actions[0] == system.wake_t()
        assert script.actions[1] == system.wake_r()
        assert len(script.messages) == 5

    def test_plain_script_has_no_faults(self):
        system = fifo_system(alternating_bit_protocol())
        script = generate_script(system, FaultPlan(messages=5, seed=1))
        assert not script.has_faults

    @pytest.mark.parametrize("seed", range(5))
    def test_scripts_satisfy_environment_obligations(self, seed):
        system = fifo_system(alternating_bit_protocol())
        plan = FaultPlan(
            messages=8,
            fail_probability=0.2,
            crash_probability=0.1,
            seed=seed,
        )
        script = generate_script(system, plan)
        assert dl_well_formed(script.actions, "t", "r").holds
        assert dl2(script.actions, "t", "r").holds
        assert dl3(script.actions, "t", "r").holds

    def test_scripts_deterministic_in_seed(self):
        system = fifo_system(alternating_bit_protocol())
        plan = FaultPlan(messages=5, fail_probability=0.3, seed=9)
        factory_a = MessageFactory()
        factory_b = MessageFactory()
        a = generate_script(system, plan, factory_a)
        b = generate_script(system, plan, factory_b)
        assert a.actions == b.actions

    @pytest.mark.parametrize("seed", range(3))
    def test_receiver_outages_stay_well_formed(self, seed):
        system = fifo_system(alternating_bit_protocol())
        plan = FaultPlan(
            messages=6,
            fail_probability=0.15,
            receiver_fail_probability=0.15,
            seed=seed,
        )
        script = generate_script(system, plan)
        assert dl_well_formed(script.actions, "t", "r").holds
        assert dl2(script.actions, "t", "r").holds

    def test_crash_storm_counts(self):
        system = fifo_system(alternating_bit_protocol())
        script = crash_storm(system, crashes=4, messages_between=2)
        assert script.crash_count == 4
        assert len(script.messages) == 10  # initial burst + 4 more
        assert dl_well_formed(script.actions, "t", "r").holds

    @pytest.mark.parametrize("seed", range(5))
    def test_dynamic_link_scripts_stay_well_formed(self, seed):
        system = fifo_system(alternating_bit_protocol())
        plan = FaultPlan(
            messages=8,
            link_flap_probability=0.3,
            link_partition_probability=0.2,
            seed=seed,
        )
        script = generate_script(system, plan)
        assert dl_well_formed(script.actions, "t", "r").holds
        assert dl2(script.actions, "t", "r").holds
        assert dl3(script.actions, "t", "r").holds

    def test_dynamic_link_events_are_counted_as_faults(self):
        system = fifo_system(alternating_bit_protocol())
        plan = FaultPlan(
            messages=12,
            link_flap_probability=0.4,
            link_partition_probability=0.3,
            seed=3,
        )
        script = generate_script(system, plan)
        assert script.link_flaps > 0
        assert script.link_partitions > 0
        assert script.crash_count == 0
        assert script.has_faults

    def test_zero_link_probabilities_are_byte_compatible(self):
        # The dynamic-link windows sit after the legacy crash/fail
        # windows, so a plan that never exercises them must consume the
        # RNG identically to the pre-dynamic-link generator.
        system = fifo_system(alternating_bit_protocol())
        legacy = generate_script(
            system,
            FaultPlan(messages=10, fail_probability=0.3, seed=123),
            MessageFactory(),
        )
        extended = generate_script(
            system,
            FaultPlan(
                messages=10,
                fail_probability=0.3,
                link_flap_probability=0.0,
                link_partition_probability=0.0,
                seed=123,
            ),
            MessageFactory(),
        )
        assert legacy.actions == extended.actions
        assert extended.link_flaps == extended.link_partitions == 0

    def test_link_mixes_are_registered_fault_mixes(self):
        from repro.conformance import FuzzConfig
        from repro.conformance.harness import FAULT_MIXES, with_mix

        for mix in ("link-flap", "link-partition"):
            assert mix in FAULT_MIXES
        assert with_mix(FuzzConfig(), "link-flap").link_flap_probability > 0
        assert (
            with_mix(FuzzConfig(), "link-partition").link_partition_probability
            > 0
        )


class TestRunner:
    def test_scenario_quiesces(self):
        system = fifo_system(alternating_bit_protocol())
        script = generate_script(system, FaultPlan(messages=5, seed=2))
        result = Session(system, tuple(script.actions), seed=2).run()
        assert result.quiescent
        assert result.steps >= len(script.actions)

    def test_interleaving_differs_across_seeds(self):
        system_a = fifo_system(alternating_bit_protocol())
        system_b = fifo_system(alternating_bit_protocol())
        script = generate_script(system_a, FaultPlan(messages=6, seed=3))
        a = Session(system_a, tuple(script.actions), seed=1).run()
        b = Session(system_b, tuple(script.actions), seed=2).run()
        # Same inputs, different interleavings (almost surely).
        assert a.fragment.actions != b.fragment.actions


class TestMetrics:
    def test_delivery_stats(self, factory):
        system = fifo_system(alternating_bit_protocol())
        messages = factory.fresh_many(5)
        fragment = deliver_all(system, messages)
        stats = delivery_stats(fragment)
        assert stats.sent == 5
        assert stats.delivered == 5
        assert stats.duplicates == 0
        assert stats.delivery_ratio == 1.0
        assert stats.mean_latency > 0
        assert len(stats.latencies) == 5

    def test_channel_stats(self, factory):
        system = fifo_system(alternating_bit_protocol())
        fragment = deliver_all(system, factory.fresh_many(4))
        tr = channel_stats(fragment, "t", "r")
        rt = channel_stats(fragment, "r", "t")
        assert tr.packets_sent >= 4
        assert tr.packets_received >= 4
        assert tr.loss_ratio == 0.0  # perfect channels
        assert tr.distinct_headers == 2  # (DATA,0) and (DATA,1)
        assert rt.distinct_headers == 2  # (ACK,0) and (ACK,1)

    @staticmethod
    def assert_census_is_per_send(fragment, src, dst):
        # Classes are computed once per distinct (header, body length);
        # keys, their order and counts match computing one per send.
        from repro.channels.actions import SEND_PKT
        from repro.datalink.message_independence import packet_class

        expected = {}
        for action in fragment.actions:
            if action.key == (SEND_PKT, (src, dst)):
                cls = packet_class(action.payload)
                expected[cls] = expected.get(cls, 0) + 1
        census = channel_stats(fragment, src, dst).header_census
        assert repr(list(census.items())) == repr(list(expected.items()))

    @pytest.mark.parametrize(
        "protocol", ["alternating_bit", "stenning", "fragmentation"]
    )
    def test_census_matches_a_class_per_send(self, protocol):
        result = Session.from_spec(protocol, "nonfifo", 4).run()
        for src, dst in (("t", "r"), ("r", "t")):
            self.assert_census_is_per_send(result.fragment, src, dst)

    def test_census_separates_body_lengths_of_one_header(self, factory):
        from repro.alphabets import Packet
        from repro.channels.actions import send_pkt
        from repro.ioa import ExecutionFragment

        one, two = factory.fresh_many(2)
        packets = [
            Packet(("seq", one), (one,), 1),
            Packet(("seq", one), (), 2),
            Packet(("seq", two), (two,), 3),
            Packet(("seq", one), (one, two), 4),
        ]
        actions = tuple(send_pkt("t", "r", p) for p in packets)
        fragment = ExecutionFragment((None,) * (len(actions) + 1), actions)
        self.assert_census_is_per_send(fragment, "t", "r")
        stats = channel_stats(fragment, "t", "r")
        assert stats.distinct_headers == 3

    def test_distinct_headers_stenning_grows(self, factory):
        system = fifo_system(stenning_protocol())
        fragment = deliver_all(system, factory.fresh_many(6))
        assert distinct_headers_used(fragment) == 6

    def test_empty_fragment_stats(self):
        from repro.ioa import ExecutionFragment

        stats = delivery_stats(ExecutionFragment.initial(()))
        assert stats.sent == 0 and stats.delivery_ratio == 1.0
        assert stats.mean_latency == 0.0

    def test_delivery_without_send_is_anomalous_not_perfect(self, factory):
        # A fragment sliced after its sends: deliveries with sent == 0
        # must report ratio 0.0 (never "vacuously perfect") and flag
        # the anomaly on the event stream.
        from repro.datalink.actions import receive_msg
        from repro.ioa import ExecutionFragment
        from repro.obs import MemorySink, tracing

        message = factory.fresh()
        fragment = ExecutionFragment(
            states=((), ()), actions=(receive_msg("t", "r", message),)
        )
        with tracing(MemorySink()) as tracer:
            stats = delivery_stats(fragment)
        assert stats.sent == 0 and stats.delivered == 1
        assert stats.delivery_ratio == 0.0
        totals = tracer.snapshot_counters()
        assert totals["sim.anomaly.unsent_delivery"] == 1


def _separate_passes(fragment, t="t", r="r"):
    """The counts as the per-purpose passes computed them: messages by
    ``(name, direction)`` key, and each direction's drops as its
    ``channel_stats`` sends minus receives, floored at 0."""
    send_key, receive_key = ("send_msg", (t, r)), ("receive_msg", (t, r))
    send_index, delivered, duplicates, latencies = {}, {}, 0, []
    for index, action in enumerate(fragment.actions):
        if action.key == send_key:
            send_index.setdefault(action.payload, index)
        elif action.key == receive_key:
            if action.payload in delivered:
                duplicates += 1
                continue
            delivered[action.payload] = index
            if action.payload in send_index:
                latencies.append(index - send_index[action.payload])
    dropped = 0
    for src, dst in ((t, r), (r, t)):
        link = channel_stats(fragment, src, dst)
        dropped += max(0, link.packets_sent - link.packets_received)
    return (len(send_index), len(delivered), duplicates, tuple(latencies), dropped)


class TestOnePassCounts:
    """``delivery_stats`` counts messages, latencies and dropped packets
    in one pass, and a session result works out its behavior on first
    read; both must answer what the separate passes did."""

    @pytest.mark.parametrize("channel", ["fifo", "nonfifo", "bounded_nonfifo"])
    def test_matches_the_separate_passes_over_the_fuzz_matrix(self, channel):
        import pickle
        import random

        from repro.conformance import FuzzConfig, SubSeeds
        from repro.conformance.registry import FUZZ_PROTOCOLS

        config = FuzzConfig(messages=3, shrink=False, max_steps=2_000)
        dropped = 0
        for protocol in sorted(FUZZ_PROTOCOLS):
            master = random.Random(f"{protocol}/{channel}")
            for _ in range(3):
                session = Session.from_spec(
                    protocol, channel, SubSeeds.derive(master), config
                )
                result = session.run()
                stats = delivery_stats(result.fragment)
                assert (
                    stats.sent,
                    stats.delivered,
                    stats.duplicates,
                    stats.latencies,
                    stats.dropped,
                ) == _separate_passes(result.fragment)
                dropped += stats.dropped
                copy = pickle.loads(pickle.dumps(result))
                expected = session.system.behavior(result.fragment)
                assert result.behavior == expected
                assert copy.behavior == expected
        assert dropped, "no packet was dropped: the drop count went untested"

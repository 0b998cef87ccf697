"""E5 -- one non-volatile incarnation suffices (Baratz-Segall boundary).

The experiment that brackets Theorem 7.5 from above: the session
protocol with a non-volatile incarnation number keeps (DL4)/(DL5)
across arbitrary crash storms and resynchronizes afterwards, while the
identical protocol with volatile incarnations is defeated by the crash
engine.  Expected shape: zero safety violations for the non-volatile
variant across all storms; cost grows with the crash count.
"""

from __future__ import annotations

import pytest

from repro.alphabets import MessageFactory
from repro.datalink import dl4, dl5
from repro.impossibility import refute_crash_tolerance
from repro.protocols import baratz_segall_protocol
from repro.sim import Session, crash_storm, delivery_stats, fifo_system


@pytest.mark.parametrize("crashes", [1, 3, 6, 10])
def test_crash_storm_safety(benchmark, crashes):
    def storm():
        system = fifo_system(baratz_segall_protocol(nonvolatile=True))
        script = crash_storm(system, crashes=crashes, seed=crashes)
        result = Session(system, tuple(script.actions), seed=crashes).run()
        return script, result

    script, result = benchmark(storm)
    assert result.quiescent
    assert dl4(result.behavior, "t", "r").holds
    assert dl5(result.behavior, "t", "r").holds
    stats = delivery_stats(result.fragment)
    benchmark.extra_info["sent"] = len(script.messages)
    benchmark.extra_info["delivered"] = stats.delivered
    benchmark.extra_info["steps"] = result.steps


def test_safety_sweep_many_seeds(benchmark):
    """Headline: 0 safety violations over 10 seeds x 5 crashes."""

    def sweep():
        violations = 0
        for seed in range(10):
            system = fifo_system(baratz_segall_protocol(nonvolatile=True))
            script = crash_storm(system, crashes=5, seed=seed)
            result = Session(system, tuple(script.actions), seed=seed).run()
            if not (
                dl4(result.behavior, "t", "r").holds
                and dl5(result.behavior, "t", "r").holds
            ):
                violations += 1
        return violations

    assert benchmark(sweep) == 0


def test_post_storm_liveness(benchmark):
    """Messages sent after the storm settles are always delivered."""

    def run():
        system = fifo_system(baratz_segall_protocol(nonvolatile=True))
        factory = MessageFactory()
        warmup = [
            system.wake_t(),
            system.wake_r(),
            system.send(factory.fresh()),
            system.crash_t(),
            system.wake_t(),
            system.crash_r(),
            system.wake_r(),
        ]
        state = system.run_fair(
            system.initial_state(), inputs=warmup
        ).final_state
        messages = factory.fresh_many(5)
        fragment = system.run_fair(
            state, inputs=[system.send(m) for m in messages]
        )
        delivered = {
            a.payload for a in fragment.actions if a.name == "receive_msg"
        }
        return set(messages) <= delivered

    assert benchmark(run)


def test_volatile_variant_defeated(benchmark):
    """The same protocol minus non-volatile memory falls to the engine."""

    certificate = benchmark(
        lambda: refute_crash_tolerance(
            baratz_segall_protocol(nonvolatile=False)
        )
    )
    assert certificate.validate()
    benchmark.extra_info["kind"] = certificate.kind
    benchmark.extra_info["pump_levels"] = certificate.stats["pump_levels"]

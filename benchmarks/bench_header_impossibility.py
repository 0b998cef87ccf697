"""E2 -- Theorem 8.5: the bounded-header construction.

Benchmarks the pumping construction across the bounded-header protocol
family.  Expected shape: every victim falls with a duplicate-delivery
certificate; pumping rounds grow (roughly linearly) with the header
count, staying below the Lemma 8.4 bound ``k * |classes|``; the
unbounded-header control (Stenning) is rejected.
"""

from __future__ import annotations

import pytest

from repro.impossibility import EngineError, refute_bounded_headers
from repro.protocols import (
    alternating_bit_protocol,
    modulo_stenning_protocol,
    sliding_window_protocol,
    stenning_protocol,
)

VICTIMS = {
    "abp": alternating_bit_protocol,
    "sliding-window-2": lambda: sliding_window_protocol(2),
    "sliding-window-4": lambda: sliding_window_protocol(4),
    "mod-stenning-02": lambda: modulo_stenning_protocol(2),
    "mod-stenning-04": lambda: modulo_stenning_protocol(4),
    "mod-stenning-08": lambda: modulo_stenning_protocol(8),
    "mod-stenning-16": lambda: modulo_stenning_protocol(16),
}


@pytest.mark.parametrize("name", sorted(VICTIMS))
def test_header_engine(benchmark, name):
    factory = VICTIMS[name]

    certificate = benchmark(lambda: refute_bounded_headers(factory()))

    assert certificate.validate(), name
    protocol = factory()
    header_count = len(protocol.header_space())
    rounds = certificate.stats["pump_rounds"]
    k = certificate.stats["k"]
    # Lemma 8.4: the T-chain has length at most k * |classes|.
    assert rounds <= k * 2 * header_count
    benchmark.extra_info["kind"] = certificate.kind
    benchmark.extra_info["headers"] = header_count
    benchmark.extra_info["k"] = k
    benchmark.extra_info["pump_rounds"] = rounds
    benchmark.extra_info["transit_packets"] = certificate.stats[
        "transit_packets"
    ]


def test_rounds_grow_with_headers(benchmark):
    """The crossover claim: effort scales with the header space."""

    def sweep():
        return {
            modulus: refute_bounded_headers(
                modulo_stenning_protocol(modulus)
            ).stats["pump_rounds"]
            for modulus in (2, 4, 8, 16)
        }

    rounds = benchmark(sweep)
    assert rounds[2] < rounds[4] < rounds[8] < rounds[16]


def test_header_engine_rejects_stenning(benchmark):
    def attempt():
        try:
            refute_bounded_headers(stenning_protocol())
        except EngineError:
            return True
        return False

    assert benchmark(attempt)


SCALING_CEILING = 2.5


def test_construction_scales_linearly():
    """Doubling the header count at most about doubles the time.

    The pumping chain grows linearly with the header count (Lemma 8.4),
    and each round's work must not grow with ``T``: modulo-Stenning(256)
    runs twice the rounds of modulo-Stenning(128), so a linear engine
    takes about twice as long, where one that revisits every packet in
    transit each round takes well over three times as long.  A ratio
    timed in one process holds across runner hardware; the two sizes
    alternate so drift of a shared machine hits both alike.
    """
    import time
    from statistics import median

    def seconds(modulus):
        protocol = modulo_stenning_protocol(modulus)
        started = time.perf_counter()
        refute_bounded_headers(protocol)
        return time.perf_counter() - started

    seconds(128)  # warm caches and lazy imports before timing
    ratios = [seconds(256) / seconds(128) for _ in range(5)]
    assert median(ratios) <= SCALING_CEILING, ratios

"""Coverage dedup against the field-hash reference.

A delivery set hashes only a window of its first receive slots, and
``InternTable.intern`` probes once.  Neither may change what a campaign
counts: the interned states, each run's new states and the corpus must
equal the reference's (:mod:`tests.conformance.reference_dedup`), which
hashes every delivery set by all its fields.  Under the ``clean`` mix
every lossy-FIFO set is equal, so states of different runs collide and
must still merge.
"""

from __future__ import annotations

import pytest

from repro.channels.delivery_set import DeliverySet
from repro.conformance import FUZZ_PROTOCOLS, FuzzConfig, fuzz_campaign
from repro.conformance.harness import with_mix

from .reference_dedup import reference_coverage

SEED = 9


@pytest.mark.parametrize("mix", ["default", "clean", "reorder-flood"])
@pytest.mark.parametrize("channel", ["fifo", "nonfifo", "bounded_nonfifo"])
def test_coverage_matches_the_field_hash_reference(channel, mix):
    config = with_mix(FuzzConfig(runs=4, max_steps=4000, shrink=False), mix)
    for protocol in sorted(FUZZ_PROTOCOLS):
        campaign = fuzz_campaign(protocol, channel, SEED, config)
        interned, new_states, corpus = reference_coverage(
            protocol, channel, SEED, config
        )
        assert campaign.failed_runs == 0
        assert campaign.states_interned == interned, protocol
        assert [run.new_states for run in campaign.runs] == new_states
        assert [
            (entry.run_index, entry.reason, entry.oracle, entry.new_states)
            for entry in campaign.corpus
        ] == corpus


def test_a_campaign_leaves_most_seeded_sets_undrawn(monkeypatch):
    """Dedup hashes every visited state, and with it both channels'
    seeded sets: the window hash leaves their rest undrawn."""
    created = []
    seeded = DeliverySet._seeded.__func__

    def recording(cls, *args, **kwargs):
        delivery = seeded(cls, *args, **kwargs)
        created.append(delivery)
        return delivery

    monkeypatch.setattr(DeliverySet, "_seeded", classmethod(recording))
    campaign = fuzz_campaign(
        "alternating_bit", "fifo", SEED, FuzzConfig(runs=20)
    )
    assert campaign.failed_runs == 0 and not campaign.violations
    assert len(created) == 40  # two channels per run
    undrawn = sum(delivery._pending is not None for delivery in created)
    assert undrawn > len(created) // 2, undrawn

"""Fixed-seed golden outputs of whole fuzz campaigns.

A refactor of the fuzz hot path (stepping, state identity, dedup,
oracles) must leave every campaign outcome unchanged.  These literals
were recorded before such a refactor and must keep holding after it:
total steps, coverage (states interned), corpus size, violations, total
shrunk script length, and a digest of the campaign report without its
execution telemetry (``duration_s``, ``details.pool``) and without the
``fuzz.oracle_checks`` counter, which counts oracle applications rather
than outcomes (it is pinned against the traced counter in
``test_fuzzer.py``).
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.conformance import FuzzConfig, fuzz_campaign

#: (protocol, channel, runs, seed) -> (steps, states_interned, corpus,
#: violations, shrunk actions, report digest).
PINS = {
    ("alternating_bit", "fifo", 100, 3): (
        7482,
        7524,
        100,
        0,
        0,
        "9ed2864b292fb090b4f88ffa78df0f74f989ee2fb42f7d3353a536d497840d37",
    ),
    ("alternating_bit", "fifo", 100, 8): (
        7450,
        7513,
        100,
        0,
        0,
        "507cba1ef4f2536cfd7b1439dd4223dd0127c5fe01861eec814f02bafdd63bc7",
    ),
    ("naive", "nonfifo", 20, 5): (
        1493,
        1509,
        66,
        66,
        322,
        "e14bb4bc3b8171d77c52358bbbd0c6564c53fa88f86bad714dbcf1ec9af60b5a",
    ),
}

#: Campaigns that need more than ``runs`` from :class:`FuzzConfig`:
#: name -> (protocol, channel, seed, config) and the same outcome tuple.
#: ``sstab-arbitrary`` is CI's stab-smoke campaign (corrupted starts,
#: judged by the SSTAB oracles); ``bounded-nonfifo`` exercises the
#: bounded channel, whose tasks can enable several actions at once.
CONFIGURED_PINS = {
    "sstab-arbitrary": (
        (
            "alternating_bit",
            "bounded_nonfifo",
            3,
            FuzzConfig(
                runs=5, init_mode="arbitrary", messages=4, max_steps=4000
            ),
        ),
        (
            274,
            270,
            5,
            3,
            18,
            "f3c2df503781998549f9822f37fab9c6c6a8ecf5fbec8fe95af744ca6182a77f",
        ),
    ),
    "bounded-nonfifo": (
        ("alternating_bit", "bounded_nonfifo", 4, FuzzConfig(runs=40)),
        (
            2719,
            2316,
            93,
            74,
            490,
            "c34fa09851d058ffdca4bea5a06e63354e82466bf8595273141aeea65d05f46d",
        ),
    ),
}


def report_digest(campaign) -> str:
    report = campaign.report().to_dict()
    report.pop("duration_s", None)
    report["details"].pop("pool", None)
    report["counters"].pop("fuzz.oracle_checks")
    encoded = json.dumps(report, sort_keys=True, default=str).encode()
    return hashlib.sha256(encoded).hexdigest()


def outcome(campaign):
    return (
        sum(run.steps for run in campaign.runs),
        campaign.states_interned,
        len(campaign.corpus),
        len(campaign.violations),
        sum(v.shrunk_length for v in campaign.violations),
        report_digest(campaign),
    )


@pytest.mark.parametrize("case", sorted(PINS), ids=lambda case: "-".join(map(str, case)))
def test_campaign_matches_golden_outputs(case):
    protocol, channel, runs, seed = case
    campaign = fuzz_campaign(protocol, channel, seed, FuzzConfig(runs=runs))
    assert outcome(campaign) == PINS[case]


@pytest.mark.parametrize("name", sorted(CONFIGURED_PINS))
def test_configured_campaign_matches_golden_outputs(name):
    (protocol, channel, seed, config), expected = CONFIGURED_PINS[name]
    campaign = fuzz_campaign(protocol, channel, seed, config)
    assert outcome(campaign) == expected

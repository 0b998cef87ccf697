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


def report_digest(campaign) -> str:
    report = campaign.report().to_dict()
    report.pop("duration_s", None)
    report["details"].pop("pool", None)
    report["counters"].pop("fuzz.oracle_checks")
    encoded = json.dumps(report, sort_keys=True, default=str).encode()
    return hashlib.sha256(encoded).hexdigest()


@pytest.mark.parametrize("case", sorted(PINS), ids=lambda case: "-".join(map(str, case)))
def test_campaign_matches_golden_outputs(case):
    protocol, channel, runs, seed = case
    campaign = fuzz_campaign(protocol, channel, seed, FuzzConfig(runs=runs))
    observed = (
        sum(run.steps for run in campaign.runs),
        campaign.states_interned,
        len(campaign.corpus),
        len(campaign.violations),
        sum(v.shrunk_length for v in campaign.violations),
        report_digest(campaign),
    )
    assert observed == PINS[case]

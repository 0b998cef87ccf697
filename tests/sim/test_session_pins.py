"""Fixed-seed golden outputs of the scenario runner's library callers.

Every scenario in the library runs through ``Session(...).run()``.
These literals were recorded before the callers were moved onto it, so
any drift in the stepping order, the interleaving RNG or the reports
built on top shows up here as a changed number.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.datalink import check_over_lossy_fifo
from repro.protocols import alternating_bit_protocol

AUDIT_CLEAN = {
    "DL-well-formed": True,
    "DL1": True,
    "DL2": True,
    "DL3": True,
    "DL4": True,
    "DL5": True,
    "DL6": True,
    "DL7": True,
    "DL8": True,
    "valid": True,
}

SIMULATE_ABP_SEED3 = {
    "command": "simulate",
    "status": "ok",
    "counters": {
        "sim.duplicate_deliveries": 0,
        "sim.messages_delivered": 10,
        "sim.messages_sent": 10,
        "sim.packets_dropped": 8,
        "sim.steps": 92,
    },
    "duration_s": None,
    "details": {
        "steps": 92,
        "quiescent": True,
        "sent": 10,
        "delivered": 10,
        "duplicates": 0,
        "delivery_ratio": 1.0,
        "audit": AUDIT_CLEAN,
    },
}

SIMULATE_ABP_SEED3_REORDER2_CRASHES = {
    "command": "simulate",
    "status": "violation",
    "counters": {
        "sim.duplicate_deliveries": 2,
        "sim.messages_delivered": 7,
        "sim.messages_sent": 10,
        "sim.packets_dropped": 9,
        "sim.steps": 100,
    },
    "duration_s": None,
    "details": {
        "steps": 100,
        "quiescent": True,
        "sent": 10,
        "delivered": 7,
        "duplicates": 2,
        "delivery_ratio": 0.7,
        "audit": {**AUDIT_CLEAN, "DL4": False, "DL6": False, "valid": False},
        "violations": [
            {
                "property": "DL4",
                "witness": "message s0 received at events 4 and 10",
            },
            {
                "property": "DL6",
                "witness": "message s0 (sent at 2) received at event 10 "
                "after s1 (sent at 3): out of FIFO order",
            },
            {
                "property": "valid",
                "witness": "fail/crash event at 9: valid sequences "
                "contain none",
            },
        ],
    },
}


def _simulate(capsys, *extra):
    code = main(["simulate", "abp", "--seed", "3", *extra, "--json"])
    report = json.loads(capsys.readouterr().out)
    report["duration_s"] = None
    return code, report


class TestSimulatePins:
    def test_clean_run(self, capsys):
        code, report = _simulate(capsys)
        assert code == 0
        assert report == SIMULATE_ABP_SEED3

    def test_reordered_crashing_run(self, capsys):
        code, report = _simulate(capsys, "--reorder", "2", "--crashes")
        assert code == 1
        assert report == SIMULATE_ABP_SEED3_REORDER2_CRASHES


class TestLossyFifoPins:
    def test_default_budget_all_seeds_quiesce(self):
        report = check_over_lossy_fifo(
            alternating_bit_protocol(), seeds=range(5)
        )
        assert report.runs == 5
        assert report.failures == []

    @pytest.mark.parametrize(
        "max_steps, expected",
        [
            # (seed, quiescent, behavior length, in DL) per failing run.
            # Seed 0 goes quiescent on its 110th step, so it passes.
            (110, [(2, False, 22, True)]),
            (
                100,
                [
                    (0, False, 20, True),
                    (1, False, 22, True),
                    (2, False, 20, True),
                    (3, False, 22, True),
                    (4, False, 21, True),
                ],
            ),
        ],
    )
    def test_tight_budget_per_seed_quiescence(self, max_steps, expected):
        report = check_over_lossy_fifo(
            alternating_bit_protocol(), seeds=range(5), max_steps=max_steps
        )
        assert report.runs == 5
        assert [
            (f.seed, f.quiescent, len(f.behavior), f.verdict.in_module)
            for f in report.failures
        ] == expected

"""Fixed-seed golden outputs of the scenario runner's library callers.

Every scenario in the library runs through ``Session(...).run()`` or a
fair run from a seeded start state.  These literals were recorded
before the callers were moved onto them, so any drift in the stepping
order, the interleaving RNG, the seeded delivery sets or the reports
built on top shows up here as a changed number.
"""

from __future__ import annotations

import json

import pytest

from repro.analysis import reordering_tolerance_grid
from repro.analysis.report import e3_fifo_table, e4_growth_table
from repro.cli import main
from repro.datalink import check_over_lossy_fifo, check_over_reordering
from repro.protocols import (
    alternating_bit_protocol,
    modulo_stenning_protocol,
    selective_repeat_protocol,
    sliding_window_protocol,
    stenning_protocol,
)
from ..test_examples import run_example

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


class TestReorderingPins:
    @pytest.mark.parametrize(
        "protocol, options, expected",
        [
            # (seed, quiescent, behavior length, in WDL) per failing run.
            (
                alternating_bit_protocol,
                {"seeds": range(8), "max_steps": 5000},
                [
                    (0, True, 28, False),
                    (1, True, 26, False),
                    (2, True, 22, False),
                    (3, True, 22, False),
                    (4, True, 23, False),
                    (5, True, 19, False),
                    (6, True, 22, False),
                    (7, True, 20, False),
                ],
            ),
            (
                lambda: modulo_stenning_protocol(3),
                {"window": 4, "seeds": range(10)},
                [(7, True, 20, False)],
            ),
            (
                lambda: selective_repeat_protocol(2),
                {"seeds": range(8), "max_steps": 2000},
                [
                    (0, True, 22, False),
                    (1, True, 19, False),
                    (3, True, 18, False),
                    (4, True, 22, False),
                    (5, True, 19, False),
                    (6, True, 20, False),
                    (7, True, 24, False),
                ],
            ),
            (
                lambda: sliding_window_protocol(2),
                {"seeds": range(4), "max_steps": 60},
                [
                    (0, False, 17, True),
                    (1, False, 15, True),
                    (2, False, 16, True),
                    (3, False, 15, True),
                ],
            ),
            (
                lambda: modulo_stenning_protocol(4),
                {"loss_rate": 0.3, "window": 6, "seeds": range(12)},
                [],
            ),
        ],
    )
    def test_failures(self, protocol, options, expected):
        report = check_over_reordering(protocol(), **options)
        assert [
            (f.seed, f.quiescent, len(f.behavior), f.verdict.in_module)
            for f in report.failures
        ] == expected


class TestAblationPins:
    def test_grid_cells(self):
        grid = reordering_tolerance_grid(
            lambda m: stenning_protocol()
            if m is None
            else modulo_stenning_protocol(m),
            moduli=[2, 4, 8, None],
            displacements=[1, 2, 4, 8],
            seeds=range(6),
            messages=10,
        )
        # (modulus, displacement, violations, failing seeds) per cell.
        assert [
            (c.modulus, c.displacement, c.violations, c.failing_seeds)
            for c in grid.cells
        ] == [
            (2, 1, 0, ()),
            (2, 2, 5, (0, 1, 2, 3, 5)),
            (2, 4, 6, (0, 1, 2, 3, 4, 5)),
            (2, 8, 6, (0, 1, 2, 3, 4, 5)),
            (4, 1, 0, ()),
            (4, 2, 0, ()),
            (4, 4, 1, (5,)),
            (4, 8, 0, ()),
            *((8, w, 0, ()) for w in (1, 2, 4, 8)),
            *((None, w, 0, ()) for w in (1, 2, 4, 8)),
        ]


QUICKSTART_STDOUT = (
    'protocol: alternating-bit -- 1-bit sliding window ARQ; correct over FIFO channels, crashing, message-independent, bounded headers',
    '',
    'over a 40%-lossy FIFO link: delivered 5/5 messages in 42 steps (mean latency 19.4 steps, 0 duplicates: True)',
    'behavior in scheds(DL^t,r): True',
    'external events:',
    '  wake^{t,r}',
    '  wake^{r,t}',
    "  send_msg^{t,r}(Message(ident=0, label='m', size=0))",
    "  send_msg^{t,r}(Message(ident=1, label='m', size=0))",
    "  send_msg^{t,r}(Message(ident=2, label='m', size=0))",
    "  send_msg^{t,r}(Message(ident=3, label='m', size=0))",
    "  send_msg^{t,r}(Message(ident=4, label='m', size=0))",
    "  receive_msg^{t,r}(Message(ident=0, label='m', size=0))",
    "  receive_msg^{t,r}(Message(ident=1, label='m', size=0))",
    "  receive_msg^{t,r}(Message(ident=2, label='m', size=0))",
    "  receive_msg^{t,r}(Message(ident=3, label='m', size=0))",
    "  receive_msg^{t,r}(Message(ident=4, label='m', size=0))",
    '',
    'Theorem 7.5: running the crash-impossibility construction',
    "Violation certificate (theorem-7.5) for protocol 'alternating-bit'",
    '  kind: liveness; violated: DL8',
    '  behavior:',
    '    0: wake^{t,r}',
    '    1: wake^{r,t}',
    '    2: crash^{t,r}',
    '    3: wake^{t,r}',
    "    4: send_msg^{t,r}(Message(ident=1, label='c', size=0))",
    '    5: crash^{r,t}',
    '    6: wake^{r,t}',
    "    7: receive_msg^{t,r}(Message(ident=1, label='c', size=0))",
    '    8: crash^{t,r}',
    '    9: wake^{t,r}',
    "    10: send_msg^{t,r}(Message(ident=2, label='c', size=0))",
    '  construction:',
    '    - reference execution alpha built: 6 steps, behavior wake wake send(c0) receive(c0); channels left clean (Lemma 6.3)',
    '    - alternation chain (Lemma 7.3): (t,4) -> (r,6) -> (t,6)',
    '    - level (t,4): crashed t, replayed 4 reference steps, consumed 0 packets, sent 1',
    '    - level (r,6): crashed r, replayed 6 reference steps, consumed 1 packets, sent 0',
    '    - level (t,6): crashed t, replayed 6 reference steps, consumed 0 packets, sent 1',
    '    - Lemma 7.4 state reached: both stations equivalent to the end of alpha, channels clean, fresh message c2 sent but undelivered',
    '    - fair extension quiesced without delivering c2: (DL8) violated',
    '  stats: alpha_steps=6, pump_levels=3, replayed_steps=9',
    '',
    'certificate independently validated: True',
)

NOISY_LINK_TRANSFER_STDOUT = (
    'bulk transfer of 20 records over a lossy FIFO link',
    '',
    'window  loss delivered   steps mean lat pkts sent overhead DL ok',
    '----------------------------------------------------------------',
    '     1   0.0     20/20     122     60.0        20     1.00  True',
    '     1   0.2     20/20     156     76.8        40     2.00  True',
    '     1   0.4     20/20     205    108.6        67     3.35  True',
    '     1   0.6     20/20     325    170.0       161     8.05  True',
    '     4   0.0     20/20     122     60.0        20     1.00  True',
    '     4   0.2     20/20     184    112.3        47     2.35  True',
    '     4   0.4     20/20     221    131.3        72     3.60  True',
    '     4   0.6     20/20     268    149.2       124     6.20  True',
    '',
    'expected shape: every run delivers all records and satisfies',
    'DL; packet overhead and latency grow with the loss rate.',
    '(This simulator counts events with zero propagation delay, so',
    'window pipelining -- a latency optimization -- shows up only',
    'as seed-level noise between window sizes.)',
)

TWO_HOP_RELAY_STDOUT = (
    'nine automata, two lossy hops (35% loss each): delivered 8/8 messages in 133 steps',
    'in order: True',
    'end-to-end: no duplicates True, no inventions True, FIFO True',
)

E3_TEXT = (
    '[E3] positive control: sliding window over lossy FIFO',
    'window  loss  delivered  steps  pkts  overhead  DL  ',
    '----------------------------------------------------',
    '1       0.0   15/15      92     15    1.00      True',
    '1       0.2   15/15      122    31    2.07      True',
    '1       0.4   15/15      163    50    3.33      True',
    '1       0.6   15/15      286    135   9.00      True',
    '4       0.0   15/15      92     15    1.00      True',
    '4       0.2   15/15      133    34    2.27      True',
    '4       0.4   15/15      139    40    2.67      True',
    '4       0.6   15/15      190    84    5.60      True',
)

E4_TEXT = (
    '[E4] Stenning over reordering; header growth (Section 9)',
    'messages  stenning headers  sliding-window(2) headers',
    '-----------------------------------------------------',
    '1         2                 2                        ',
    '2         4                 4                        ',
    '4         8                 6                        ',
    '8         16                6                        ',
    '16        32                6                        ',
    '32        64                6                        ',
    'note: stenning over reorder window 2, loss 0.0: 12/12 delivered, WDL True',
    'note: stenning over reorder window 6, loss 0.25: 12/12 delivered, WDL True',
    'note: slopes: stenning 2.00 headers/message, sliding window 0.13',
)


class TestSeededTablePins:
    def test_e3_fifo_table(self):
        assert tuple(e3_fifo_table().to_text().splitlines()) == E3_TEXT

    def test_e4_growth_table(self):
        assert tuple(e4_growth_table().to_text().splitlines()) == E4_TEXT


class TestExamplePins:
    @pytest.mark.parametrize(
        "name, expected",
        [
            ("quickstart", QUICKSTART_STDOUT),
            ("noisy_link_transfer", NOISY_LINK_TRANSFER_STDOUT),
            ("two_hop_relay", TWO_HOP_RELAY_STDOUT),
        ],
    )
    def test_stdout(self, name, expected):
        assert tuple(run_example(name).splitlines()) == expected

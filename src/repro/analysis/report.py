"""Structured experiment reports (the tables behind EXPERIMENTS.md).

Each ``e*_table`` function runs one experiment and returns a
:class:`Table` of results; :func:`run_all` produces the full suite and
:func:`to_text` / :func:`to_markdown` render it.  The
``benchmarks/run_experiments.py`` script and the ``python -m repro
experiments`` command are thin wrappers around this module.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from ..alphabets import MessageFactory
from ..channels import (
    PermissiveChannelState,
    random_lossy_fifo,
    random_reordering,
)
from ..datalink import dl4, dl5, dl_module, probe_k_bound, wdl_module
from ..impossibility import (
    EngineError,
    refute_bounded_headers,
    refute_crash_tolerance,
)
from ..protocols import (
    alternating_bit_protocol,
    baratz_segall_protocol,
    eager_protocol,
    fragmenting_protocol,
    modulo_stenning_protocol,
    selective_repeat_protocol,
    sliding_window_protocol,
    stenning_protocol,
)
from ..sim import (
    Session,
    channel_stats,
    crash_storm,
    delivery_stats,
    fifo_system,
    permissive_system,
)
from .header_growth import measure_header_growth
from .model_check import verify_delivery_order

Row = Tuple[str, ...]


@dataclass
class Table:
    """One experiment's result table."""

    ident: str
    title: str
    columns: Tuple[str, ...]
    rows: List[Row] = field(default_factory=list)
    notes: Tuple[str, ...] = ()

    def add(self, *cells) -> None:
        self.rows.append(tuple(str(cell) for cell in cells))

    def to_text(self) -> str:
        widths = [
            max(len(self.columns[i]), *(len(row[i]) for row in self.rows))
            if self.rows
            else len(self.columns[i])
            for i in range(len(self.columns))
        ]
        header = "  ".join(
            column.ljust(widths[i])
            for i, column in enumerate(self.columns)
        )
        lines = [
            f"[{self.ident}] {self.title}",
            header,
            "-" * len(header),
        ]
        for row in self.rows:
            lines.append(
                "  ".join(
                    cell.ljust(widths[i]) for i, cell in enumerate(row)
                )
            )
        lines.extend(f"note: {note}" for note in self.notes)
        return "\n".join(lines)

    def to_markdown(self) -> str:
        lines = [
            f"### {self.ident} — {self.title}",
            "",
            "| " + " | ".join(self.columns) + " |",
            "|" + "|".join("---" for _ in self.columns) + "|",
        ]
        for row in self.rows:
            lines.append("| " + " | ".join(row) + " |")
        for note in self.notes:
            lines.append(f"\n*{note}*")
        return "\n".join(lines)


def e1_crash_table() -> Table:
    table = Table(
        "E1",
        "Theorem 7.5: crash impossibility over FIFO channels",
        ("protocol", "verdict", "violates", "levels", "replayed", "ms"),
    )
    victims = [
        alternating_bit_protocol(),
        sliding_window_protocol(2),
        sliding_window_protocol(4),
        selective_repeat_protocol(2),
        stenning_protocol(),
        baratz_segall_protocol(nonvolatile=False),
        eager_protocol(),
    ]
    for protocol in victims:
        started = time.perf_counter()
        certificate = refute_crash_tolerance(protocol)
        elapsed = (time.perf_counter() - started) * 1000
        assert certificate.validate()
        table.add(
            protocol.name,
            certificate.kind,
            ",".join(certificate.violated),
            certificate.stats["pump_levels"],
            certificate.stats["replayed_steps"],
            f"{elapsed:.1f}",
        )
    try:
        refute_crash_tolerance(baratz_segall_protocol(nonvolatile=True))
        table.add("baratz-segall(nv)", "UNEXPECTEDLY DEFEATED", "", "", "", "")
    except EngineError:
        table.add("baratz-segall(nv)", "rejected (not crashing)", "-", "-", "-", "-")
    return table


def e2_header_table() -> Table:
    table = Table(
        "E2",
        "Theorem 8.5: bounded headers over non-FIFO channels",
        ("protocol", "|H|", "k", "rounds", "bound", "verdict"),
    )
    victims = [
        alternating_bit_protocol(),
        sliding_window_protocol(2),
        selective_repeat_protocol(2),
        modulo_stenning_protocol(2),
        modulo_stenning_protocol(4),
        modulo_stenning_protocol(8),
        modulo_stenning_protocol(16),
    ]
    for protocol in victims:
        certificate = refute_bounded_headers(protocol)
        assert certificate.validate()
        header_count = len(protocol.header_space())
        k = certificate.stats["k"]
        table.add(
            protocol.name,
            header_count,
            k,
            certificate.stats["pump_rounds"],
            k * 2 * header_count,
            certificate.kind,
        )
    try:
        refute_bounded_headers(stenning_protocol())
        table.add("stenning", "", "", "", "", "UNEXPECTEDLY DEFEATED")
    except EngineError:
        table.add("stenning", "inf", "-", "-", "-", "rejected (unbounded)")
    return table


def e3_fifo_table(messages: int = 15) -> Table:
    table = Table(
        "E3",
        "positive control: sliding window over lossy FIFO",
        ("window", "loss", "delivered", "steps", "pkts", "overhead", "DL"),
    )
    module = dl_module("t", "r")
    for window in (1, 4):
        composed = fifo_system(sliding_window_protocol(window))
        for loss in (0.0, 0.2, 0.4, 0.6):
            system = composed.started(
                PermissiveChannelState(delivery=random_lossy_fifo(11, loss)),
                PermissiveChannelState(delivery=random_lossy_fifo(1008, loss)),
            )
            factory = MessageFactory()
            batch = factory.fresh_many(messages)
            fragment = system.run_fair(
                system.initial_state(),
                inputs=[system.wake_t(), system.wake_r()]
                + [system.send(m) for m in batch],
                max_steps=500_000,
            )
            stats = delivery_stats(fragment)
            link = channel_stats(fragment, "t", "r")
            table.add(
                window,
                f"{loss:.1f}",
                f"{stats.delivered}/{messages}",
                len(fragment),
                link.packets_sent,
                f"{link.packets_sent / messages:.2f}",
                module.contains(system.behavior(fragment)),
            )
    return table


def e4_growth_table() -> Table:
    table = Table(
        "E4",
        "Stenning over reordering; header growth (Section 9)",
        ("messages", "stenning headers", "sliding-window(2) headers"),
    )
    stenning_series = measure_header_growth(
        stenning_protocol(), checkpoints=(1, 2, 4, 8, 16, 32)
    )
    window_series = measure_header_growth(
        sliding_window_protocol(2), checkpoints=(1, 2, 4, 8, 16, 32)
    )
    for a, b in zip(stenning_series.points, window_series.points):
        table.add(a.messages, a.total_distinct, b.total_distinct)
    # Reordering-correctness spot checks recorded as notes.
    notes = []
    module = wdl_module("t", "r")
    composed = permissive_system(stenning_protocol())
    for loss, window in ((0.0, 2), (0.25, 6)):
        system = composed.started(
            PermissiveChannelState(delivery=random_reordering(5, loss, window)),
            PermissiveChannelState(delivery=random_reordering(55, loss, window)),
        )
        factory = MessageFactory()
        batch = factory.fresh_many(12)
        fragment = system.run_fair(
            system.initial_state(),
            inputs=[system.wake_t(), system.wake_r()]
            + [system.send(m) for m in batch],
            max_steps=500_000,
        )
        stats = delivery_stats(fragment)
        ok = module.contains(system.behavior(fragment))
        notes.append(
            f"stenning over reorder window {window}, loss {loss}: "
            f"{stats.delivered}/12 delivered, WDL {ok}"
        )
    notes.append(
        f"slopes: stenning {stenning_series.slope_estimate():.2f} "
        f"headers/message, sliding window "
        f"{window_series.slope_estimate():.2f}"
    )
    table.notes = tuple(notes)
    return table


def e5_nonvolatile_table() -> Table:
    table = Table(
        "E5",
        "non-volatile incarnations under crash storms",
        ("crashes", "seed", "sent", "delivered", "DL4", "DL5"),
    )
    violations = 0
    for crashes in (1, 3, 6, 10):
        for seed in range(3):
            system = fifo_system(baratz_segall_protocol(nonvolatile=True))
            script = crash_storm(system, crashes=crashes, seed=seed)
            result = Session(
                system, tuple(script.actions), seed=seed
            ).run()
            safe4 = dl4(result.behavior, "t", "r").holds
            safe5 = dl5(result.behavior, "t", "r").holds
            violations += (not safe4) + (not safe5)
            stats = delivery_stats(result.fragment)
            table.add(
                crashes,
                seed,
                len(script.messages),
                stats.delivered,
                safe4,
                safe5,
            )
    table.notes = (f"total safety violations: {violations}",)
    return table


def e6_kbound_table() -> Table:
    table = Table(
        "E6",
        "k-boundedness probe (Section 8.1)",
        ("protocol", "k", "per-round"),
    )
    for protocol in (
        alternating_bit_protocol(),
        sliding_window_protocol(2),
        selective_repeat_protocol(2),
        stenning_protocol(),
        fragmenting_protocol(chunk=1, max_fragments=3),
    ):
        probe = probe_k_bound(protocol)
        table.add(protocol.name, probe.k, probe.per_round)
    return table


def e9_model_check_table() -> Table:
    table = Table(
        "E9",
        "exhaustive bounded verification",
        ("protocol", "bounds", "verdict", "states", "exhaustive"),
    )
    cases = [
        (alternating_bit_protocol(), dict(messages=2, capacity=3)),
        (sliding_window_protocol(2), dict(messages=2, capacity=2)),
        (selective_repeat_protocol(2), dict(messages=2, capacity=2)),
        (stenning_protocol(), dict(messages=2, capacity=2)),
        (
            alternating_bit_protocol(),
            dict(messages=2, capacity=3, reorder_depth=2),
        ),
        (
            modulo_stenning_protocol(4),
            dict(messages=2, capacity=3, reorder_depth=2),
        ),
        (eager_protocol(), dict(messages=1, capacity=2)),
    ]
    for protocol, kwargs in cases:
        result = verify_delivery_order(protocol, **kwargs)
        bounds = ",".join(f"{k}={v}" for k, v in sorted(kwargs.items()))
        table.add(
            protocol.name,
            bounds,
            "verified" if result.ok else "counterexample",
            result.states_explored,
            result.exhaustive,
        )
    return table


ALL_TABLES: Tuple[Tuple[str, Callable[[], Table]], ...] = (
    ("E1", e1_crash_table),
    ("E2", e2_header_table),
    ("E3", e3_fifo_table),
    ("E4", e4_growth_table),
    ("E5", e5_nonvolatile_table),
    ("E6", e6_kbound_table),
    ("E9", e9_model_check_table),
)


def run_all(
    only: Optional[Sequence[str]] = None,
) -> List[Table]:
    """Run the experiment suite (optionally a subset by id)."""
    selected = [
        builder
        for ident, builder in ALL_TABLES
        if only is None or ident in only
    ]
    return [builder() for builder in selected]


def to_text(tables: Sequence[Table]) -> str:
    return "\n\n".join(table.to_text() for table in tables)


def to_markdown(tables: Sequence[Table]) -> str:
    parts = ["# Experiment report", ""]
    parts.extend(table.to_markdown() + "\n" for table in tables)
    return "\n".join(parts)

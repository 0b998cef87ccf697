"""Ablation: how much reordering can bounded headers survive?

Theorem 8.5 needs channels that may reorder *arbitrarily*.  The paper's
footnote 1 observes the complementary fact: if packet lifetime on the
link is bounded, bounded headers become possible.  This ablation maps
the empirical boundary: for the modulo-Stenning family (headers modulo
``N``) it sweeps the channel's reordering displacement ``W`` and counts
specification violations over seeded adversaries.

Expected shape: with ``W`` small relative to ``N`` no violations occur
(a stale sequence number cannot alias ``expected`` modulo ``N`` within
the displacement window), violations appear as ``W`` grows past ``N``,
and true Stenning (``N = infinity``) never fails.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from ..alphabets import MessageFactory
from ..channels.scripted import reordering_channel
from ..datalink.modules import wdl_module
from ..datalink.protocol import DataLinkProtocol
from ..sim.network import DataLinkSystem
from ..sim.session import Session


@dataclass
class AblationCell:
    """One (protocol, displacement) cell of the grid."""

    protocol_name: str
    modulus: Optional[int]  # None for unbounded headers
    displacement: int
    runs: int
    violations: int
    failing_seeds: Tuple[int, ...] = ()

    @property
    def violation_ratio(self) -> float:
        return self.violations / self.runs if self.runs else 0.0


@dataclass
class AblationGrid:
    """The full sweep result."""

    cells: Tuple[AblationCell, ...]

    def cell(self, modulus: Optional[int], displacement: int) -> AblationCell:
        for cell in self.cells:
            if (
                cell.modulus == modulus
                and cell.displacement == displacement
            ):
                return cell
        raise KeyError((modulus, displacement))

    def render(self) -> str:
        """ASCII table: rows = modulus, columns = displacement."""
        displacements = sorted({c.displacement for c in self.cells})
        moduli = sorted(
            {c.modulus for c in self.cells},
            key=lambda m: (m is None, m),
        )
        width = 7
        header = "modulus".ljust(12) + "".join(
            f"W={d}".rjust(width) for d in displacements
        )
        lines = [header, "-" * len(header)]
        for modulus in moduli:
            label = "unbounded" if modulus is None else f"N={modulus}"
            row = label.ljust(12)
            for displacement in displacements:
                cell = self.cell(modulus, displacement)
                row += (
                    f"{cell.violations}/{cell.runs}".rjust(width)
                )
            lines.append(row)
        return "\n".join(lines)


def _run_once(
    protocol: DataLinkProtocol,
    displacement: int,
    seed: int,
    messages: int,
    max_steps: int,
) -> bool:
    """Run one seeded scenario; True iff the behavior violates WDL."""
    system = DataLinkSystem.build(
        protocol,
        reordering_channel(
            "t", "r", seed=seed, loss_rate=0.15, window=displacement
        ),
        reordering_channel(
            "r", "t", seed=seed + 7919, loss_rate=0.15, window=displacement
        ),
    )
    factory = MessageFactory()
    script = [system.wake_t(), system.wake_r()] + [
        system.send(m) for m in factory.fresh_many(messages)
    ]
    result = Session(
        system, tuple(script), seed=seed, max_steps=max_steps
    ).run()
    module = wdl_module("t", "r", quiescent=result.quiescent)
    return not module.contains(result.behavior) or not result.quiescent


def reordering_tolerance_grid(
    protocol_for_modulus: Callable[[Optional[int]], DataLinkProtocol],
    moduli: Sequence[Optional[int]],
    displacements: Sequence[int],
    seeds: Sequence[int] = tuple(range(10)),
    messages: int = 12,
    max_steps: int = 300_000,
) -> AblationGrid:
    """Sweep (modulus x displacement), counting WDL violations.

    ``protocol_for_modulus(None)`` should build the unbounded-header
    member of the family (true Stenning).
    """
    cells: List[AblationCell] = []
    for modulus in moduli:
        protocol = protocol_for_modulus(modulus)
        for displacement in displacements:
            failing = tuple(
                seed
                for seed in seeds
                if _run_once(
                    protocol_for_modulus(modulus),
                    displacement,
                    seed,
                    messages,
                    max_steps,
                )
            )
            cells.append(
                AblationCell(
                    protocol_name=protocol.name,
                    modulus=modulus,
                    displacement=displacement,
                    runs=len(seeds),
                    violations=len(failing),
                    failing_seeds=failing,
                )
            )
    return AblationGrid(tuple(cells))

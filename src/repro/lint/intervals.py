"""Bounded headers (§8): one report, viewed by REP203/REP302.

The interval analysis runs on :mod:`repro.lint.dataflow`: every
``Packet(...)`` construction site reachable from the protocol methods
is captured with the abstract value of its header at the stable
core-field fixpoint, and checked against the station's *declared*
``header_space()``.

The check is a product-closure membership test: a site is *covered*
when every position of its header value lies inside the projection of
the declared space onto that position.  The product of finite
projections is finite, so coverage proves the §8 bounded-header
hypothesis even when the abstraction cannot track cross-position
correlations.

Because the ``packet`` parameter of ``on_packet``/``after_send`` is
clamped to the declared spaces of both stations, coverage of every
send site is an inductive invariant: assuming peers only emit declared
headers, this station only emits declared headers.

* **REP203** shows the direct syntactic evidence: arithmetic
  (``+ - * ** <<``) in a ``Packet`` header expression while a finite
  header space is declared, unless reduced by ``%`` or delegated to a
  helper call, and unless the site is covered (e.g. ``seq % 2 + 1``).
* **REP302** shows what only the interval analysis finds, when REP203's
  view is empty: uncovered sites -- e.g. a monotone counter flowing
  into a header -- or a failed analysis, reported as unverified.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterator, List, Optional, Tuple

from .dataflow import (
    NEG_INF,
    POS_INF,
    Bottom,
    Interval,
    NoneVal,
    Site,
    StrSet,
    TupleVal,
    Value,
    analyze_station,
)
from .registry import rule
from .source import SourceAudit, call_name, parent_map, per_station

#: Refuse to enumerate integer ranges wider than this when checking
#: membership in a declared space.
_ENUM_LIMIT = 4096


def _atom_covered(value: Value, atoms: frozenset) -> bool:
    """Is every concretization of ``value`` one of ``atoms``?"""
    if isinstance(value, Bottom):
        return True
    if isinstance(value, StrSet):
        if value.values is None:
            return False
        strings = {a for a in atoms if isinstance(a, str)}
        return value.values <= strings
    if isinstance(value, Interval):
        if value.lo in (NEG_INF, POS_INF) or value.hi in (
            NEG_INF,
            POS_INF,
        ):
            return False
        if value.hi - value.lo > _ENUM_LIMIT:
            return False
        numbers = {
            int(a)
            for a in atoms
            if isinstance(a, (int, bool)) and not isinstance(a, str)
        }
        return all(
            n in numbers
            for n in range(int(value.lo), int(value.hi) + 1)
        )
    if isinstance(value, NoneVal):
        return None in atoms
    return False


def site_covered(value: Value, space: frozenset) -> bool:
    """Product-closure membership of a header value in a space."""
    if isinstance(value, TupleVal):
        candidates = [
            h
            for h in space
            if isinstance(h, tuple) and len(h) == len(value.items)
        ]
        if not candidates:
            return False
        for position, item in enumerate(value.items):
            atoms = frozenset(h[position] for h in candidates)
            if not _atom_covered(item, atoms):
                return False
        return True
    scalars = frozenset(h for h in space if not isinstance(h, tuple))
    return _atom_covered(value, scalars)


@dataclass
class SiteVerdict:
    site: Site
    covered: bool


@dataclass
class HeaderReport:
    """Bounded-header evidence for one station: REP203's candidates,
    keyed by the ``(file, line)`` of their Packet, then the interval
    analysis, run on first use of ``sites`` (None when it failed, and
    ``error`` says why)."""

    audit: SourceAudit
    declared: bool  # the station declares a finite header_space()
    arithmetic: List[Tuple[Tuple[str, int], Dict]]
    error: Optional[str] = None

    @cached_property
    def sites(self) -> Optional[List[SiteVerdict]]:
        """Packet sites and whether each is covered (REP302)."""
        space = self.audit.own_header_space
        try:
            return [
                SiteVerdict(
                    site,
                    self.declared and site_covered(site.value, space),
                )
                for site in analyze_station(self.audit).header_sites
            ]
        except Exception as error:  # analysis must never crash the lint
            self.error = repr(error)
            return None

    @property
    def proven(self) -> bool:
        """True iff bounded headers are *proven*, not just declared."""
        return (
            self.declared
            and self.sites is not None
            and all(verdict.covered for verdict in self.sites)
        )

    @cached_property
    def direct(self) -> List[Dict]:
        """REP203's findings: the candidates at sites not proven covered."""
        if not self.arithmetic:
            return []
        covered = {
            (verdict.site.file, verdict.site.line)
            for verdict in self.sites or ()
            if verdict.covered
        }
        return [
            finding
            for site, finding in self.arithmetic
            if site not in covered
        ]


#: Arithmetic operators that can grow a header without bound.
_GROWTH_OPS = (ast.Add, ast.Sub, ast.Mult, ast.Pow, ast.LShift)


def _header_expression(call: ast.Call) -> Optional[ast.AST]:
    if call.args:
        return call.args[0]
    for keyword in call.keywords:
        if keyword.arg == "header":
            return keyword.value
    return None


def _reduced_or_delegated(
    node: ast.AST,
    parents: Dict[ast.AST, ast.AST],
    header: ast.AST,
) -> bool:
    """True if arithmetic is under a ``%`` or inside a helper call."""
    cursor = node
    while cursor is not header:
        cursor = parents.get(cursor)
        if cursor is None:
            return False
        if isinstance(cursor, ast.BinOp) and isinstance(cursor.op, ast.Mod):
            return True
        if isinstance(cursor, ast.Call):
            return True
    return False


def _unreduced_arithmetic(
    audit: SourceAudit,
) -> Iterator[Tuple[Tuple[str, int], Dict]]:
    for source in audit.classes:
        parents = parent_map(source.tree)
        for node in ast.walk(source.tree):
            if not (
                isinstance(node, ast.Call)
                and call_name(node) == "Packet"
            ):
                continue
            header = _header_expression(node)
            if header is None:
                continue
            for sub in ast.walk(header):
                if isinstance(sub, ast.BinOp) and isinstance(
                    sub.op, _GROWTH_OPS
                ):
                    if _reduced_or_delegated(sub, parents, header):
                        continue
                    yield (source.file, source.absolute_line(node)), {
                        "message": (
                            f"{audit.station} logic "
                            f"{source.cls.__name__} builds a Packet "
                            f"header with unreduced arithmetic while "
                            f"declaring a finite header_space(): "
                            f"headers can escape the declared bound"
                        ),
                        "file": source.file,
                        "line": source.absolute_line(sub),
                    }


@per_station
def header_report(audit: SourceAudit) -> HeaderReport:
    """The station's bounded-header report."""
    return HeaderReport(
        audit,
        audit.bounded_headers and audit.own_header_space is not None,
        list(_unreduced_arithmetic(audit)) if audit.bounded_headers else [],
    )


@rule(
    "REP203",
    "unbounded-header-construction",
    "§8",
    "bounded-header protocols must not grow headers arithmetically",
    family="source",
)
def check_unbounded_headers(audit):
    return header_report(audit).direct


@rule(
    "REP302",
    "unproven-header-bound",
    "§8",
    "declared finite header spaces must be provable by interval analysis",
    family="deep",
)
def check_header_intervals(deep):
    """Flag header sites the interval analysis cannot bound."""
    for audit in deep.audits:
        if not audit.bounded_headers:
            continue  # unbounded by declaration; nothing to prove
        report = header_report(audit)
        if report.direct:
            continue  # REP203 already reported this station
        if report.sites is None:
            yield {
                "message": (
                    f"{audit.station} logic of {audit.target} declares "
                    f"a finite header_space() but the interval "
                    f"analysis failed ({report.error}); the bound is "
                    f"unverified"
                ),
                "file": audit.classes[0].file if audit.classes else "<unknown>",
                "line": audit.classes[0].line if audit.classes else 0,
            }
            continue
        for verdict in report.sites:
            if verdict.covered:
                continue
            yield {
                "message": (
                    f"{audit.station} logic of {audit.target} builds a "
                    f"Packet whose header the interval analysis cannot "
                    f"keep inside the declared header_space(): the "
                    f"inferred value {render_value(verdict.site.value)} "
                    f"escapes the finite bound (headers(A, ==) would "
                    f"be infinite, §8)"
                ),
                "file": verdict.site.file,
                "line": verdict.site.line,
            }


def render_value(value: Value) -> str:
    """Human-readable rendering of an abstract header value."""
    if isinstance(value, Interval):
        lo = "-inf" if value.lo == NEG_INF else int(value.lo)
        hi = "+inf" if value.hi == POS_INF else int(value.hi)
        return f"[{lo}, {hi}]"
    if isinstance(value, StrSet):
        if value.values is None:
            return "str"
        return "{" + ", ".join(sorted(value.values)) + "}"
    if isinstance(value, TupleVal):
        return (
            "("
            + ", ".join(render_value(item) for item in value.items)
            + ")"
        )
    if isinstance(value, NoneVal):
        return "None"
    if isinstance(value, Bottom):
        return "unreachable"
    return type(value).__name__.replace("Val", "").lower()

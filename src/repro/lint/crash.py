"""The crashing hypothesis (§5.3.2/§7): one report, viewed by REP202/REP303.

* **REP202** shows the direct syntactic evidence.  A protocol declaring
  ``crash_resilient=False`` must reset to the initial core, so any
  unguarded ``return`` in ``on_crash`` of something other than
  ``self.initial_core()`` is flagged.  Returns dominated by an ``if``
  testing a ``self.<flag>`` are exempt: that is the construction-time
  mode-switch idiom (one logic class serving volatile and non-volatile
  variants).  Conversely ``crash_resilient=True`` with no override at
  all is flagged -- the inherited default loses everything.
* **REP303** shows what only the escape analysis finds, when REP202's
  view is empty: ``on_crash`` is interpreted with every core field
  tainted by its own name and mode flags resolved against the live
  logic instance, and a field whose post-crash value still carries core
  taint *survives*.  A surviving field that other methods read is
  stable storage, which contradicts ``crash_resilient=False``; an
  unresolved post-crash state is reported as unverified.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterator, List, Optional, Set, Tuple

from .dataflow import (
    Analyzer,
    ProgramModel,
    Record,
    taint_of,
    value_of_concrete,
)
from .registry import rule
from .source import ClassSource, SourceAudit, parent_map, per_station

#: The effective ``on_crash`` override: its class and its definition.
Override = Tuple[ClassSource, ast.FunctionDef]


def _reads_self(node: ast.AST) -> bool:
    for sub in ast.walk(node):
        if (
            isinstance(sub, ast.Attribute)
            and isinstance(sub.value, ast.Name)
            and sub.value.id == "self"
        ):
            return True
    return False


def _is_initial_core_call(node: Optional[ast.AST]) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "initial_core"
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "self"
    )


def _guarded_by_mode_flag(
    node: ast.AST,
    parents: Dict[ast.AST, ast.AST],
    function: ast.FunctionDef,
) -> bool:
    cursor = node
    while cursor is not function:
        cursor = parents.get(cursor)
        if cursor is None:
            return False
        if isinstance(cursor, ast.If) and _reads_self(cursor.test):
            return True
    return False


def _effective_on_crash(audit: SourceAudit) -> Optional[Override]:
    for source in audit.classes:  # MRO order: first override wins
        for statement in source.tree.body:
            if isinstance(statement, ast.ClassDef):
                for item in statement.body:
                    if (
                        isinstance(item, ast.FunctionDef)
                        and item.name == "on_crash"
                    ):
                        return source, item
    return None


def _on_crash_findings(
    audit: SourceAudit, override: Optional[Override]
) -> Iterator[Dict]:
    if audit.crash_resilient:
        if override is None and audit.classes:
            source = audit.classes[0]
            yield {
                "message": (
                    f"{audit.station} logic {source.cls.__name__} is "
                    f"declared crash_resilient=True but does not "
                    f"override on_crash; the inherited default loses "
                    f"all state, contradicting the claim"
                ),
                "file": source.file,
                "line": source.line,
            }
        return
    if override is None:
        return
    source, function = override
    parents = parent_map(source.tree)
    for node in ast.walk(function):
        if not isinstance(node, ast.Return):
            continue
        if _is_initial_core_call(node.value):
            continue
        if _guarded_by_mode_flag(node, parents, function):
            continue
        yield {
            "message": (
                f"{audit.station} logic {source.cls.__name__} "
                f"overrides on_crash with an unguarded return that is "
                f"not self.initial_core(): state surviving a crash "
                f"contradicts crash_resilient=False (the paper's "
                f"crashing hypothesis)"
            ),
            "file": source.file,
            "line": source.absolute_line(node),
        }
        break


def _relevant_fields(model: ProgramModel, names: Set[str]) -> Set[str]:
    """Core fields in ``names`` read (as ``<var>.<field>``) outside
    on_crash."""
    relevant: Set[str] = set()
    infos = [
        info
        for name, info in model.methods.items()
        if name not in ("on_crash", "initial_core")
    ] + list(model.helpers.values())
    for info in infos:
        for node in ast.walk(info.node):
            if (
                isinstance(node, ast.Attribute)
                and node.attr in names
                and isinstance(node.value, ast.Name)
                and node.value.id != "self"
            ):
                relevant.add(node.attr)
    return relevant


def _surviving_fields(model: ProgramModel) -> Optional[Set[str]]:
    """Core fields whose post-crash value depends on the pre-crash
    core, or None when the post-crash state is unresolved."""
    seeded_core = value_of_concrete(model.logic.initial_core())
    if not isinstance(seeded_core, Record):
        return None
    seeded = Record(
        seeded_core.taint,
        seeded_core.tag,
        tuple(
            (
                name,
                value.with_taint(frozenset([("core", name)])),
            )
            for name, value in seeded_core.fields
        ),
    )
    frame = Analyzer(model).run_method("on_crash", seeded)
    survivors: Set[str] = set()
    for returned in frame.returns:
        if not (isinstance(returned, Record) and returned.tag == seeded.tag):
            return None
        for name, value in returned.fields:
            if any(t and t[0] == "core" for t in taint_of(value)):
                survivors.add(name)
    return survivors


@dataclass
class CrashReport:
    """Crashing-hypothesis evidence for one station: the effective
    ``on_crash`` (None when inherited), REP202's ``direct`` findings,
    then the escape analysis, run on first use of ``survivors``."""

    audit: SourceAudit
    override: Optional[Override]
    direct: List[Dict]

    @cached_property
    def survivors(self) -> Optional[Set[str]]:
        """Core fields whose post-crash value still depends on the
        pre-crash core; None when the analysis could not resolve the
        post-crash state (unverified)."""
        if self.override is None:
            return set()  # the inherited default resets the core
        try:
            return _surviving_fields(ProgramModel(self.audit))
        except Exception:  # analysis must never crash the lint
            return None

    @cached_property
    def stable_fields(self) -> Set[str]:
        """Surviving fields that other methods read: stable storage."""
        if not self.survivors:
            return set()
        return _relevant_fields(ProgramModel(self.audit), self.survivors)

    @property
    def crashing(self) -> bool:
        """Proven to lose all observable state on crash (§5.3.2)."""
        return self.survivors is not None and not self.stable_fields


@per_station
def crash_report(audit: SourceAudit) -> CrashReport:
    """The station's crashing-hypothesis report."""
    override = _effective_on_crash(audit)
    return CrashReport(
        audit, override, list(_on_crash_findings(audit, override))
    )


@rule(
    "REP202",
    "stable-storage-in-crashing-protocol",
    "§5.3.2/§7",
    "a crashing protocol's on_crash must lose all state",
    family="source",
)
def check_crashing_claim(audit):
    return crash_report(audit).direct


@rule(
    "REP303",
    "stable-storage-escape",
    "§5.3.2/§7",
    "state escaping on_crash is stable storage and must be declared",
    family="deep",
)
def check_crash_escape(deep):
    """Flag undeclared stable storage surviving ``on_crash``."""
    for audit in deep.audits:
        if audit.crash_resilient:
            continue  # stable storage is declared; REP202 audits it
        report = crash_report(audit)
        if report.direct or report.override is None:
            continue  # REP202 already reported, or nothing overridden
        source, function = report.override
        location = {
            "file": source.file,
            "line": source.absolute_line(function),
        }
        if report.survivors is None:
            yield {
                "message": (
                    f"{audit.station} logic of {audit.target} overrides "
                    f"on_crash but the escape analysis could not "
                    f"resolve the post-crash state; the crashing "
                    f"hypothesis (crash_resilient=False) is unverified"
                ),
                **location,
            }
            continue
        for field in sorted(report.stable_fields):
            yield {
                "message": (
                    f"{audit.station} logic of {audit.target} keeps "
                    f"core field {field!r} across on_crash and reads "
                    f"it after recovery: that is stable storage, "
                    f"contradicting crash_resilient=False (the §5.3.2 "
                    f"crashing hypothesis behind Theorem 7.5)"
                ),
                **location,
            }

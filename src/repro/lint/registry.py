"""The lint-rule registry.

Every rule registers itself with :func:`rule`, carrying a stable code, a
kebab-case name, the paper section whose hypothesis it audits, and a
checker callable.  The driver never enumerates rules by hand -- later
PRs add rules by decorating a checker, without touching the driver.

Rule families
-------------

``build``
    Runs when constructing a lint target raises
    :class:`~repro.ioa.signature.SignatureError`.  Checker signature:
    ``checker(target, error) -> iterable of raw findings``.
``semantic``
    Runs on an :class:`~repro.lint.semantic.ExploredModel` built from a
    successfully constructed target (bounded exploration via the PR-1
    engine).  Checker signature: ``checker(model) -> ...``.
``source``
    The syntactic views (REP2xx) of the per-station property reports.
    Checker signature: ``checker(audit) -> ...`` with a
    :class:`~repro.lint.source.SourceAudit`.
``deep``
    Their dataflow views (REP3xx) plus the theorem
    contradiction gate, run only under ``repro lint --deep-source``.
    Checker signature: ``checker(deep) -> ...`` with a
    :class:`~repro.lint.driver.DeepAudit` (both stations' audits,
    parsed claims, recorded fuzz evidence, the verdict row).

Raw findings are dicts with ``message``, ``file`` and ``line`` keys; the
driver completes them into :class:`~repro.lint.diagnostics.Diagnostic`
objects using the rule's metadata.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List

from .diagnostics import SEVERITIES

FAMILIES = ("build", "semantic", "source", "deep")


@dataclass(frozen=True)
class LintRule:
    """Metadata + checker for one lint code."""

    code: str
    name: str
    paper: str
    summary: str
    family: str
    severity: str
    checker: Callable


#: code -> rule, kept in code order whatever the import order.
RULES: Dict[str, LintRule] = {}


def rule(
    code: str,
    name: str,
    paper: str,
    summary: str,
    family: str,
    severity: str = "error",
) -> Callable:
    """Class decorator registering a checker callable under ``code``."""
    if family not in FAMILIES:
        raise ValueError(f"unknown rule family {family!r}")
    if severity not in SEVERITIES:
        raise ValueError(f"unknown severity {severity!r}")

    def register(checker: Callable) -> Callable:
        if code in RULES:
            raise ValueError(f"duplicate lint code {code}")
        RULES[code] = LintRule(
            code, name, paper, summary, family, severity, checker
        )
        ordered = sorted(RULES.items())
        RULES.clear()
        RULES.update(ordered)
        return checker

    return register


def rules_for(family: str) -> List[LintRule]:
    return [r for r in RULES.values() if r.family == family]

"""The lint driver: normalize targets, run rule families, build reports.

A lint *target* is anything that can be audited:

* a :class:`~repro.datalink.protocol.DataLinkProtocol` (the usual case;
  gets the full semantic sweep plus the source audits),
* a bare :class:`~repro.ioa.automaton.Automaton`, optionally with an
  input environment (semantic sweep only), or
* a zero-argument callable returning either of the above.  Factories
  let build-time failures (REP101/REP102) be audited: the driver calls
  the factory and converts a raised ``SignatureError`` into the
  matching build-phase diagnostic instead of crashing.

``zoo_targets`` wraps the CLI protocol registry so ``python -m repro
lint`` audits the whole zoo by default.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional

from ..datalink.protocol import DataLinkProtocol
from ..ioa.actions import Action
from ..ioa.automaton import Automaton, State
from ..ioa.signature import SignatureError
from .claims import ClaimError, build_verdict, parse_claims
from .diagnostics import Diagnostic, LintReport
from .registry import LintRule, rules_for
from .semantic import (
    build_automaton_model,
    build_protocol_model,
    callable_location,
    class_location,
)
from .source import SourceAudit, build_source_audits

Environment = Optional[Callable[[State], Iterable[Action]]]


@dataclass
class DeepAudit:
    """Input to the ``deep`` rule family for one protocol target.

    Bundles both stations' source audits with the protocol's parsed
    claims (or the parse error), any recorded fuzz evidence whose
    protocol name matches the target, and the protocol's verdict row,
    which the driver builds before the deep rules run.
    """

    protocol: DataLinkProtocol
    name: str
    file: str
    line: int
    audits: List[SourceAudit]
    claims: Optional[object] = None
    claims_error: Optional[str] = None
    evidence: List[object] = field(default_factory=list)
    verdict: Dict = field(default_factory=dict)


@dataclass
class LintTarget:
    """A named, lazily-built audit subject."""

    name: str
    build: Callable[[], object]
    environment: Environment = None
    file: str = "<unknown>"
    line: int = 0


def target_from(
    obj: object,
    name: Optional[str] = None,
    environment: Environment = None,
) -> LintTarget:
    """Normalize a protocol / automaton / factory into a LintTarget."""
    if isinstance(obj, LintTarget):
        return obj
    if isinstance(obj, DataLinkProtocol):
        file, line = callable_location(obj.transmitter_factory)
        return LintTarget(name or obj.name, lambda: obj, None, file, line)
    if isinstance(obj, Automaton):
        file, line = class_location(type(obj))
        return LintTarget(
            name or obj.name, lambda: obj, environment, file, line
        )
    if callable(obj):
        file, line = callable_location(obj)
        return LintTarget(
            name or getattr(obj, "__name__", "target"),
            obj,
            environment,
            file,
            line,
        )
    raise TypeError(
        f"cannot lint {obj!r}: expected a DataLinkProtocol, an "
        f"Automaton, or a factory callable"
    )


def zoo_targets() -> List[LintTarget]:
    """One target per protocol in the CLI registry (the protocol zoo)."""
    from ..cli import REGISTRY  # lazy: the CLI imports are heavy

    return [
        target_from(REGISTRY[name](None), name=name)
        for name in sorted(REGISTRY)
    ]


def _finish(rule: LintRule, target_name: str, raw: dict) -> Diagnostic:
    return Diagnostic(
        code=rule.code,
        severity=rule.severity,
        target=target_name,
        message=raw["message"],
        file=raw.get("file", "<unknown>"),
        line=raw.get("line", 0),
        paper=rule.paper,
    )


def lint_one(
    target: LintTarget,
    messages: int = 2,
    max_states: int = 2000,
    max_depth: int = 50,
    deep: bool = False,
    evidence: Optional[Iterable[object]] = None,
    verdicts: Optional[List[Dict]] = None,
) -> List[Diagnostic]:
    """All diagnostics for one target, in rule-registration order.

    ``deep=True`` additionally runs the ``deep`` family (REP3xx) on
    protocol targets, filtering ``evidence`` records by protocol name
    and appending one verdict row per protocol to ``verdicts``.
    """
    try:
        built = target.build()
    except SignatureError as error:
        return [
            _finish(rule, target.name, raw)
            for rule in rules_for("build")
            for raw in rule.checker(target, error)
        ]

    if isinstance(built, DataLinkProtocol):
        try:
            model = build_protocol_model(
                built,
                messages=messages,
                max_states=max_states,
                max_depth=max_depth,
            )
        except SignatureError as error:
            return [
                _finish(rule, target.name, raw)
                for rule in rules_for("build")
                for raw in rule.checker(target, error)
            ]
        audits = build_source_audits(built)
    elif isinstance(built, Automaton):
        model = build_automaton_model(
            built,
            environment=target.environment,
            max_states=max_states,
            max_depth=max_depth,
        )
        audits = []
    else:
        raise TypeError(
            f"lint target {target.name!r} built {built!r}; expected a "
            f"DataLinkProtocol or an Automaton"
        )

    diagnostics: List[Diagnostic] = []
    for rule in rules_for("semantic"):
        diagnostics.extend(
            _finish(rule, target.name, raw) for raw in rule.checker(model)
        )
    for audit in audits:
        for rule in rules_for("source"):
            diagnostics.extend(
                _finish(rule, target.name, raw)
                for raw in rule.checker(audit)
            )
    if deep and isinstance(built, DataLinkProtocol):
        try:
            parsed = parse_claims(getattr(built, "claims", None))
            claims_error = None
        except ClaimError as error:
            parsed, claims_error = None, str(error)
        records = [
            record
            for record in (evidence or [])
            if getattr(record, "protocol", None) == built.name
        ]
        deep_audit = DeepAudit(
            protocol=built,
            name=target.name,
            file=target.file,
            line=target.line,
            audits=audits,
            claims=parsed,
            claims_error=claims_error,
            evidence=records,
        )
        deep_audit.verdict = build_verdict(deep_audit)
        for rule in rules_for("deep"):
            diagnostics.extend(
                _finish(rule, target.name, raw)
                for raw in rule.checker(deep_audit)
            )
        if verdicts is not None:
            verdicts.append(deep_audit.verdict)
    return diagnostics


def lint_targets(
    targets: Iterable[object],
    messages: int = 2,
    max_states: int = 2000,
    max_depth: int = 50,
    deep: bool = False,
    evidence: Optional[Iterable[object]] = None,
) -> LintReport:
    """Lint every target and collect one report."""
    normalized = [target_from(t) for t in targets]
    evidence = list(evidence or [])
    diagnostics: List[Diagnostic] = []
    verdicts: List[Dict] = []
    for target in normalized:
        diagnostics.extend(
            lint_one(
                target,
                messages=messages,
                max_states=max_states,
                max_depth=max_depth,
                deep=deep,
                evidence=evidence,
                verdicts=verdicts,
            )
        )
    return LintReport(
        diagnostics, [t.name for t in normalized], verdicts
    )

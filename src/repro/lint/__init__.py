"""``repro lint``: a static model-audit subsystem.

Audits the repository's I/O automata and data-link protocols against
the *structural hypotheses* of Lynch-Mansour-Fekete -- signature
well-formedness and composition compatibility (§2.1/§2.5.1),
input-enabledness and task-partition totality (§2.2), message
independence (§5.3.1), the crashing property (§5.3.2/§7), and bounded
headers (§8) -- with ruff-style diagnostics: stable codes, severities,
``file:line`` locations, text and JSON output.  Exposed on the command
line as ``python -m repro lint``.

Rules live in :mod:`.semantic` (sweeps over a bounded explored state
space) and in one module per source property -- :mod:`.taint`
(REP201/REP301), :mod:`.crash` (REP202/REP303) and :mod:`.intervals`
(REP203/REP302) -- whose two codes view one per-station report: the
direct syntactic evidence, and what only the :mod:`.dataflow` engine
finds (under ``--deep-source``).  :mod:`.claims` holds the verdict rows
and REP304.  All register themselves in :mod:`.registry` on import.
"""

from .diagnostics import Diagnostic, LintReport, REPORT_VERSION
from .registry import RULES, LintRule, rules_for
from .driver import (
    DeepAudit,
    LintTarget,
    lint_one,
    lint_targets,
    target_from,
    zoo_targets,
)
from .semantic import (
    AutomatonModel,
    ExploredModel,
    build_automaton_model,
    build_protocol_model,
)
from .source import SourceAudit, build_source_audits, class_sources
from .dataflow import AnalysisResult, analyze_station
from .taint import check_message_taint, message_independent
from .intervals import HeaderReport, check_header_intervals, header_report
from .crash import CrashReport, check_crash_escape, crash_report
from .claims import (
    ProtocolClaims,
    build_verdict,
    check_contradictions,
    parse_claims,
)

__all__ = [
    "AnalysisResult",
    "CrashReport",
    "DeepAudit",
    "HeaderReport",
    "ProtocolClaims",
    "analyze_station",
    "build_verdict",
    "check_contradictions",
    "check_crash_escape",
    "check_header_intervals",
    "check_message_taint",
    "crash_report",
    "header_report",
    "message_independent",
    "parse_claims",
    "AutomatonModel",
    "Diagnostic",
    "ExploredModel",
    "LintReport",
    "LintRule",
    "LintTarget",
    "REPORT_VERSION",
    "RULES",
    "SourceAudit",
    "build_automaton_model",
    "build_protocol_model",
    "build_source_audits",
    "class_sources",
    "lint_one",
    "lint_targets",
    "rules_for",
    "target_from",
    "zoo_targets",
]

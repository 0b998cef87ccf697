"""Source audits: the parsed logic classes of one protocol station.

:func:`build_source_audits` gives one :class:`SourceAudit` per station:
the live logic object, the parsed source of the classes it actually
instantiates (walking its MRO, skipping framework base classes, so
strawman classes sharing a module with clean protocols do not pollute
it) and the station's declared metadata.  The property modules --
:mod:`.taint` (message independence), :mod:`.crash` (crashing) and
:mod:`.intervals` (bounded headers) -- each build one report per audit
with :func:`per_station`, and the AST helpers below are shared by their
syntactic checks.
"""

from __future__ import annotations

import ast
import functools
import inspect
import textwrap
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, TypeVar

from ..datalink.protocol import DataLinkProtocol, ProtocolLogic

#: Message payload attributes a message-independent protocol must not
#: read.  ``size`` is deliberately absent (the §9 extension).
MESSAGE_ATTRS = ("ident", "label")

Report = TypeVar("Report")


@dataclass
class ClassSource:
    """Parsed source of one audited logic class."""

    cls: type
    file: str
    line: int  # 1-based line of the class definition in ``file``
    tree: ast.Module

    def absolute_line(self, node: ast.AST) -> int:
        """Map a node's line (relative to the class source) to the file."""
        return self.line + getattr(node, "lineno", 1) - 1


@dataclass
class SourceAudit:
    """Everything the lint rules need about one station's logic."""

    target: str
    station: str  # "transmitter" or "receiver"
    logic: ProtocolLogic
    classes: List[ClassSource] = field(default_factory=list)
    bounded_headers: bool = False
    crash_resilient: bool = False
    #: The station's declared ``header_space()`` (None when unbounded),
    #: and the peer station's -- the deep analyses clamp incoming
    #: packet headers to their union (see :mod:`repro.lint.dataflow`).
    own_header_space: Optional[frozenset] = None
    peer_header_space: Optional[frozenset] = None
    #: Per-station analysis results, keyed by the function that built
    #: them (see :func:`per_station`).
    memo: Dict[Callable, Any] = field(
        default_factory=dict, repr=False, compare=False
    )


def per_station(
    build: Callable[[SourceAudit], Report]
) -> Callable[[SourceAudit], Report]:
    """Memoize ``build`` on its audit: it runs at most once per station."""

    @functools.wraps(build)
    def memoized(audit: SourceAudit) -> Report:
        if build not in audit.memo:
            audit.memo[build] = build(audit)
        return audit.memo[build]

    return memoized


def _is_framework_class(cls: type) -> bool:
    module = getattr(cls, "__module__", "")
    root = module.split(".")[0]
    if root in ("abc", "builtins"):
        return True
    return module.startswith("repro.datalink") or module.startswith(
        "repro.ioa"
    )


def class_sources(logic: ProtocolLogic) -> List[ClassSource]:
    """Parsed sources of the logic's own classes, in MRO order."""
    sources: List[ClassSource] = []
    for cls in type(logic).__mro__:
        if cls is object or _is_framework_class(cls):
            continue
        try:
            text = textwrap.dedent(inspect.getsource(cls))
            file = inspect.getsourcefile(cls) or "<unknown>"
            _, line = inspect.getsourcelines(cls)
            tree = ast.parse(text)
        except (OSError, TypeError, SyntaxError):
            continue
        sources.append(ClassSource(cls, file, line, tree))
    return sources


def build_source_audits(protocol: DataLinkProtocol) -> List[SourceAudit]:
    stations = (
        ("transmitter", protocol.transmitter_factory()),
        ("receiver", protocol.receiver_factory()),
    )
    spaces = []
    for _, logic in stations:
        try:
            spaces.append(logic.header_space())
        except Exception:
            spaces.append(None)
    audits: List[SourceAudit] = []
    for (station, logic), space, peer_space in zip(
        stations, spaces, reversed(spaces)
    ):
        audits.append(
            SourceAudit(
                target=protocol.name,
                station=station,
                logic=logic,
                classes=class_sources(logic),
                bounded_headers=space is not None,
                crash_resilient=protocol.crash_resilient,
                own_header_space=space,
                peer_header_space=peer_space,
            )
        )
    return audits


# ----------------------------------------------------------------------
# AST helpers
# ----------------------------------------------------------------------


def parent_map(tree: ast.AST) -> Dict[ast.AST, ast.AST]:
    parents: Dict[ast.AST, ast.AST] = {}
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            parents[child] = node
    return parents


def call_name(node: ast.Call) -> Optional[str]:
    if isinstance(node.func, ast.Name):
        return node.func.id
    if isinstance(node.func, ast.Attribute):
        return node.func.attr
    return None

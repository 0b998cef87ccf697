"""Message independence (§5.3.1): one report, viewed by REP201/REP301.

* **REP201** shows the direct syntactic evidence: a read of a
  ``Message`` payload attribute (``.ident``, ``.label``) or a
  ``Message(...)`` construction inside a logic class.  Opaque-token
  operations -- storing, forwarding, equality/membership tests --
  commute with message renamings and are allowed; ``.size`` is the
  sanctioned §9 content channel and is allowed too.
* **REP301** shows what only the dataflow engine finds, when REP201's
  view is empty.  A protocol can launder the read through a
  module-level helper::

      def _priority(message):
          return message.ident % 2        # invisible to REP201

      class SneakyTransmitter(TransmitterLogic):
          def on_send_msg(self, core, message):
              if _priority(message):      # branches on payload contents
                  ...

  Reads of the payload attributes produce values tainted with their
  source location, the taint propagates through assignments, returns,
  containers and intra-module helper calls, and any *decision site*
  observing a tainted value -- an ``if``/``while``/ternary/comprehension
  condition or a ``Packet`` header -- breaks the hypothesis.  A failed
  analysis is reported as unverified.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterator, List, Optional

from .dataflow import Site, analyze_station
from .registry import rule
from .source import MESSAGE_ATTRS, SourceAudit, call_name, per_station


def tainted_decision_sites(audit: SourceAudit) -> List[Site]:
    """Decision sites observing message-payload taint, in file order."""
    analysis = analyze_station(audit)
    sites = [
        site
        for site in analysis.branch_sites + analysis.header_sites
        if site.msg_taints
    ]
    seen = set()
    unique: List[Site] = []
    for site in sorted(sites, key=lambda s: (s.file, s.line, s.kind)):
        key = (site.file, site.line, site.kind)
        if key not in seen:
            seen.add(key)
            unique.append(site)
    return unique


@dataclass
class MessageReport:
    """Message-independence evidence for one station: REP201's
    ``direct`` findings, then the taint analysis, run on first use of
    ``flows`` (None when it failed, and ``error`` says why)."""

    audit: SourceAudit
    direct: List[Dict]
    error: Optional[str] = None

    @cached_property
    def flows(self) -> Optional[List[Site]]:
        """Decision sites payload taint reaches (REP301)."""
        if self.direct:
            return []
        try:
            return tainted_decision_sites(self.audit)
        except Exception as error:  # analysis must never crash the lint
            self.error = repr(error)
            return None

    @property
    def independent(self) -> bool:
        """True iff message independence is *proven* for the station."""
        return not self.direct and self.flows == []


def _payload_reads(audit: SourceAudit) -> Iterator[Dict]:
    for source in audit.classes:
        for node in ast.walk(source.tree):
            if (
                isinstance(node, ast.Attribute)
                and node.attr in MESSAGE_ATTRS
            ):
                yield {
                    "message": (
                        f"{audit.station} logic "
                        f"{source.cls.__name__} reads "
                        f"Message.{node.attr}: message-independent "
                        f"protocols must not branch on message contents"
                    ),
                    "file": source.file,
                    "line": source.absolute_line(node),
                }
            elif (
                isinstance(node, ast.Call)
                and call_name(node) == "Message"
            ):
                yield {
                    "message": (
                        f"{audit.station} logic "
                        f"{source.cls.__name__} constructs a Message: "
                        f"protocols may only carry messages received "
                        f"from the environment, never invent them"
                    ),
                    "file": source.file,
                    "line": source.absolute_line(node),
                }


@per_station
def message_report(audit: SourceAudit) -> MessageReport:
    """The station's message-independence report."""
    return MessageReport(audit, list(_payload_reads(audit)))


def message_independent(audit: SourceAudit) -> bool:
    """True iff no direct payload read exists and no payload taint
    reaches a decision site."""
    return message_report(audit).independent


@rule(
    "REP201",
    "message-introspection",
    "§5.3.1",
    "protocol logic must treat Message payloads as opaque tokens",
    family="source",
)
def check_message_introspection(audit):
    return message_report(audit).direct


@rule(
    "REP301",
    "message-dependence-flow",
    "§5.3.1",
    "message payloads must not flow into branch or header decisions",
    family="deep",
)
def check_message_taint(deep):
    """Flag laundered payload-to-decision flows."""
    for audit in deep.audits:
        report = message_report(audit)
        if report.flows is None:
            yield {
                "message": (
                    f"{audit.station} logic of {audit.target} could not "
                    f"be checked: the taint analysis failed "
                    f"({report.error}); message independence is "
                    f"unverified"
                ),
                "file": audit.classes[0].file if audit.classes else "<unknown>",
                "line": audit.classes[0].line if audit.classes else 0,
            }
            continue
        for site in report.flows:
            sources = ", ".join(
                f"Message.{attr} read at line {line}"
                for (_, _file, line, attr) in site.msg_taints
            )
            what = (
                "a branch condition"
                if site.kind == "branch"
                else "a Packet header"
            )
            yield {
                "message": (
                    f"{audit.station} logic of {audit.target} lets "
                    f"message payload contents flow into {what} "
                    f"({sources}): message-independent protocols must "
                    f"treat messages as opaque tokens even through "
                    f"helper functions"
                ),
                "file": site.file,
                "line": site.line,
            }

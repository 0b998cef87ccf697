"""Declared claims, the verdict rows, and the contradiction gate.

* :func:`parse_claims` validates a protocol's declared ``claims``.
* :func:`build_verdict` builds the protocol's verdict row from the
  three per-station property reports (:mod:`.taint`, :mod:`.intervals`,
  :mod:`.crash`): what is *proven*, next to what is declared.
* **REP304** is the theorem contradiction gate.  It cross-checks the
  claims against the protocol's metadata, the properties inferred in
  the verdict row (an analysis that failed leaves its claim
  unverified, not refuted), the combinations forbidden outright by
  Theorem 7.5 (no crashing message-independent protocol tolerates
  crashes) and Theorem 8.5 (no message-independent bounded-header
  k-bounded protocol is weakly correct over non-FIFO channels), and
  any recorded fuzz evidence (a crash-free violation over a channel
  class the protocol claims to be weakly correct over is a definitive
  refutation; a *clean* fuzz run proves nothing and is never used as
  positive evidence).

Claims are plain dicts on :class:`DataLinkProtocol` so protocol
modules never import the lint package::

    claims={
        "message_independent": True,
        "bounded_headers": True,
        "crashing": True,
        "k_bounded": 1,
        "weakly_correct_over": ("fifo",),
        "tolerates_crashes": False,
        "self_stabilizing": False,
    }
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from .crash import crash_report
from .intervals import header_report
from .registry import rule
from .source import SourceAudit
from .taint import message_independent, message_report

#: Channel classes a protocol may claim weak correctness over.
CHANNEL_CLASSES = ("fifo", "nonfifo")

_CLAIM_KEYS = {
    "message_independent",
    "bounded_headers",
    "crashing",
    "k_bounded",
    "weakly_correct_over",
    "tolerates_crashes",
    "self_stabilizing",
}


@dataclass(frozen=True)
class ProtocolClaims:
    """Validated per-protocol hypothesis declarations."""

    message_independent: Optional[bool] = None
    bounded_headers: Optional[bool] = None
    crashing: Optional[bool] = None
    k_bounded: Optional[int] = None
    weakly_correct_over: Tuple[str, ...] = ()
    tolerates_crashes: bool = False
    self_stabilizing: Optional[bool] = None

    def to_dict(self) -> Dict:
        return {
            "message_independent": self.message_independent,
            "bounded_headers": self.bounded_headers,
            "crashing": self.crashing,
            "k_bounded": self.k_bounded,
            "weakly_correct_over": list(self.weakly_correct_over),
            "tolerates_crashes": self.tolerates_crashes,
            "self_stabilizing": self.self_stabilizing,
        }


class ClaimError(ValueError):
    """A malformed ``claims`` declaration."""


def parse_claims(raw) -> Optional[ProtocolClaims]:
    """Validate a protocol's ``claims`` dict (None passes through)."""
    if raw is None:
        return None
    if not isinstance(raw, dict):
        raise ClaimError(f"claims must be a dict, got {type(raw).__name__}")
    unknown = set(raw) - _CLAIM_KEYS
    if unknown:
        raise ClaimError(
            f"unknown claim keys: {', '.join(sorted(unknown))}"
        )
    for key in ("message_independent", "bounded_headers", "crashing"):
        if key in raw and not isinstance(raw[key], bool):
            raise ClaimError(f"claim {key!r} must be a bool")
    k = raw.get("k_bounded")
    if k is not None and (not isinstance(k, int) or k < 1):
        raise ClaimError("claim 'k_bounded' must be a positive int")
    wco = tuple(raw.get("weakly_correct_over", ()))
    bad = [c for c in wco if c not in CHANNEL_CLASSES]
    if bad:
        raise ClaimError(
            f"claim 'weakly_correct_over' entries must be in "
            f"{CHANNEL_CLASSES}, got {bad}"
        )
    tolerates = raw.get("tolerates_crashes", False)
    if not isinstance(tolerates, bool):
        raise ClaimError("claim 'tolerates_crashes' must be a bool")
    stab = raw.get("self_stabilizing")
    if stab is not None and not isinstance(stab, bool):
        raise ClaimError("claim 'self_stabilizing' must be a bool")
    return ProtocolClaims(
        message_independent=raw.get("message_independent"),
        bounded_headers=raw.get("bounded_headers"),
        crashing=raw.get("crashing"),
        k_bounded=k,
        weakly_correct_over=wco,
        tolerates_crashes=tolerates,
        self_stabilizing=stab,
    )


# ----------------------------------------------------------------------
# Inferred verdicts
# ----------------------------------------------------------------------


def station_verdict(audit: SourceAudit) -> Dict:
    """Inferred per-station properties (all proofs, not declarations)."""
    headers = header_report(audit)
    crash = crash_report(audit)
    return {
        "station": audit.station,
        "message_independent": message_independent(audit),
        "bounded_headers_declared": headers.declared,
        "bounded_headers_proven": headers.proven,
        "header_sites": len(headers.sites or ()),
        "crashing": crash.crashing,
        "stable_fields": sorted(crash.stable_fields),
    }


def build_verdict(deep) -> Dict:
    """The JSON verdict row for one protocol (inferred + declared)."""
    stations = [station_verdict(audit) for audit in deep.audits]
    inferred = {
        "message_independent": all(
            s["message_independent"] for s in stations
        ),
        "bounded_headers": all(
            s["bounded_headers_proven"] for s in stations
        ),
        "crashing": all(s["crashing"] for s in stations),
    }
    claims = None
    if deep.claims is not None:
        claims = deep.claims.to_dict()
    return {
        "target": deep.name,
        "inferred": inferred,
        "stations": stations,
        "claims": claims,
        "evidence_records": len(deep.evidence),
    }


# ----------------------------------------------------------------------
# REP304: the contradiction gate
# ----------------------------------------------------------------------


def _violated(record) -> bool:
    violations = getattr(record, "violations", 0)
    try:
        return bool(violations)
    except Exception:
        return False


@rule(
    "REP304",
    "theorem-contradiction",
    "§7.5/§8.5",
    "claims must be consistent with the theorems, the analyses, and evidence",
    family="deep",
)
def check_contradictions(deep):
    """Cross-check declared claims against theory, inference, evidence."""
    location = {"file": deep.file, "line": deep.line}
    if deep.claims_error is not None:
        yield {
            "message": (
                f"{deep.name} declares malformed claims: "
                f"{deep.claims_error}"
            ),
            **location,
        }
        return
    claims = deep.claims
    if claims is None:
        return
    protocol = deep.protocol
    inferred = deep.verdict["inferred"]
    declared_bounded = protocol.has_bounded_headers()

    # (a) internal consistency with the protocol's own metadata
    if (
        claims.crashing is not None
        and claims.crashing != (not protocol.crash_resilient)
    ):
        yield {
            "message": (
                f"{deep.name} claims crashing="
                f"{claims.crashing} but declares crash_resilient="
                f"{protocol.crash_resilient}; the two metadata "
                f"channels contradict each other"
            ),
            **location,
        }
    if (
        claims.bounded_headers is not None
        and claims.bounded_headers != declared_bounded
    ):
        yield {
            "message": (
                f"{deep.name} claims bounded_headers="
                f"{claims.bounded_headers} but header_space() is "
                f"{'finite' if declared_bounded else 'unbounded'}"
            ),
            **location,
        }

    # (b) claims contradicted by the static analyses; a failed analysis
    # refutes nothing, so with no finding to point at the claim is
    # reported as unverifiable
    unverified = "failed, so the claim could not be verified"
    if (
        claims.message_independent
        and not inferred["message_independent"]
    ):
        found = any(
            report.direct or report.flows
            for report in map(message_report, deep.audits)
        )
        yield {
            "message": (
                f"{deep.name} claims message independence but the "
                f"taint analysis (REP301/REP201) "
                f"{'found payload dependence' if found else unverified}"
            ),
            **location,
        }
    if claims.crashing and not inferred["crashing"]:
        found = any(
            crash_report(audit).stable_fields for audit in deep.audits
        )
        yield {
            "message": (
                f"{deep.name} claims to be crashing but the escape "
                f"analysis "
                f"{'found state surviving on_crash' if found else unverified}"
            ),
            **location,
        }

    # (c) Theorem 7.5: crashing + message-independent protocols cannot
    # tolerate crashes over FIFO physical channels.
    if (
        claims.tolerates_crashes
        and claims.crashing
        and claims.message_independent
    ):
        yield {
            "message": (
                f"{deep.name} claims a crashing, message-independent "
                f"protocol that tolerates crashes: forbidden by "
                f"Theorem 7.5 (no such protocol is weakly correct "
                f"under crashes, even over FIFO channels)"
            ),
            **location,
        }

    # (d) Theorem 8.5: message-independent + bounded headers +
    # k-bounded cannot be weakly correct over non-FIFO channels.
    if (
        claims.message_independent
        and claims.bounded_headers
        and claims.k_bounded is not None
        and "nonfifo" in claims.weakly_correct_over
    ):
        yield {
            "message": (
                f"{deep.name} claims a message-independent, "
                f"bounded-header, {claims.k_bounded}-bounded protocol "
                f"weakly correct over non-FIFO channels: forbidden by "
                f"Theorem 8.5"
            ),
            **location,
        }

    # (e) recorded runtime evidence: a violation is definitive, a
    # clean campaign proves nothing.
    for record in deep.evidence:
        if not _violated(record):
            continue
        channel = getattr(record, "channel", None)
        crashes = bool(getattr(record, "crashes", False))
        oracles = ", ".join(getattr(record, "violated_oracles", ()) or ())
        init_mode = getattr(record, "init_mode", "clean")
        if init_mode == "arbitrary":
            # A corrupted-start campaign exercises self-stabilization,
            # not clean-start weak correctness; its violations refute
            # only the self_stabilizing claim.
            if not crashes and claims.self_stabilizing:
                yield {
                    "message": (
                        f"{deep.name} claims to be self-stabilizing "
                        f"but a recorded crash-free arbitrary-"
                        f"initial-state fuzz campaign (seed "
                        f"{getattr(record, 'seed', '?')}) violated "
                        f"{oracles or 'its stabilization oracles'}: "
                        f"the claim is refuted by runtime evidence"
                    ),
                    **location,
                }
            continue
        if not crashes and channel in claims.weakly_correct_over:
            yield {
                "message": (
                    f"{deep.name} claims weak correctness over "
                    f"{channel} channels but a recorded crash-free "
                    f"fuzz campaign (seed "
                    f"{getattr(record, 'seed', '?')}) violated "
                    f"{oracles or 'its oracles'}: the claim is "
                    f"refuted by runtime evidence"
                ),
                **location,
            }
        if (
            crashes
            and claims.tolerates_crashes
            and channel in claims.weakly_correct_over
        ):
            yield {
                "message": (
                    f"{deep.name} claims to tolerate crashes over "
                    f"{channel} channels but a recorded crash fuzz "
                    f"campaign (seed {getattr(record, 'seed', '?')}) "
                    f"violated {oracles or 'its oracles'}"
                ),
                **location,
            }

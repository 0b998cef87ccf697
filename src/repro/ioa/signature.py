"""Action signatures and their composition (paper, Sections 2.1 and 2.5.1).

An action signature partitions a set of actions into input, output and
internal actions.  The paper's signatures are infinite (one action per
message in an infinite alphabet), so we represent a signature by *families*:
the ``(name, direction)`` key of an action determines its classification,
independent of payload.  This matches the paper exactly -- no specification
there ever classifies two payload variants of the same directed action
differently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, Iterable, List, Optional, Sequence, Tuple

from .actions import Action, Direction

FamilyKey = Tuple[str, Direction]

#: A conflicting family key plus a human-readable description of the
#: conflict, e.g. ``(("ping", ("a", "b")), "an output of both 'a' and 'b'")``.
Conflict = Tuple[FamilyKey, str]


class SignatureError(ValueError):
    """Raised for ill-formed or incompatible signatures.

    ``kind`` distinguishes the failure modes so tooling (notably
    ``repro lint``) can classify without parsing the message:

    * ``"disjointness"`` -- the input/output/internal sets of a single
      signature overlap (Section 2.1 well-formedness);
    * ``"compatibility"`` -- a collection of signatures violates strong
      compatibility (Section 2.5.1);
    * ``"generic"`` -- anything else.

    ``conflicts`` enumerates the offending ``(name, direction)`` family
    keys, each paired with a description of its role in the conflict.
    """

    def __init__(
        self,
        message: str,
        kind: str = "generic",
        conflicts: Iterable[Conflict] = (),
    ):
        super().__init__(message)
        self.kind = kind
        self.conflicts: Tuple[Conflict, ...] = tuple(conflicts)


def _describe_conflicts(conflicts: Sequence[Conflict]) -> str:
    return "; ".join(f"{family!r} is {role}" for family, role in conflicts)


def _as_keys(families: Iterable[FamilyKey]) -> FrozenSet[FamilyKey]:
    return frozenset(families)


@dataclass(frozen=True)
class ActionSignature:
    """An action signature ``S = (in(S), out(S), int(S))``.

    The three components are given as sets of family keys (see
    :data:`FamilyKey`); they must be pairwise disjoint.
    """

    inputs: FrozenSet[FamilyKey] = field(default_factory=frozenset)
    outputs: FrozenSet[FamilyKey] = field(default_factory=frozenset)
    internals: FrozenSet[FamilyKey] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        conflicts: List[Conflict] = []
        for family in sorted(self.inputs & self.outputs, key=repr):
            conflicts.append((family, "both an input and an output"))
        for family in sorted(self.inputs & self.internals, key=repr):
            conflicts.append((family, "both an input and an internal"))
        for family in sorted(self.outputs & self.internals, key=repr):
            conflicts.append((family, "both an output and an internal"))
        if conflicts:
            raise SignatureError(
                "input, output and internal action sets must be pairwise "
                "disjoint: " + _describe_conflicts(conflicts),
                kind="disjointness",
                conflicts=conflicts,
            )

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @staticmethod
    def make(
        inputs: Iterable[FamilyKey] = (),
        outputs: Iterable[FamilyKey] = (),
        internals: Iterable[FamilyKey] = (),
    ) -> "ActionSignature":
        """Build a signature from iterables of family keys."""
        return ActionSignature(
            _as_keys(inputs), _as_keys(outputs), _as_keys(internals)
        )

    # ------------------------------------------------------------------
    # Classification
    # ------------------------------------------------------------------

    def classify(self, action: Action) -> Optional[str]:
        """Return ``"input"``, ``"output"``, ``"internal"`` or ``None``."""
        key = action.key
        if key in self.inputs:
            return "input"
        if key in self.outputs:
            return "output"
        if key in self.internals:
            return "internal"
        return None

    def contains(self, action: Action) -> bool:
        """True iff ``action`` is in ``acts(S)``."""
        return self.classify(action) is not None

    def is_input(self, action: Action) -> bool:
        return action.key in self.inputs

    def is_output(self, action: Action) -> bool:
        return action.key in self.outputs

    def is_internal(self, action: Action) -> bool:
        return action.key in self.internals

    def is_external(self, action: Action) -> bool:
        """True iff ``action`` is in ``ext(S) = in(S) + out(S)``."""
        key = action.key
        return key in self.inputs or key in self.outputs

    def is_local(self, action: Action) -> bool:
        """True iff ``action`` is in ``local(S) = out(S) + int(S)``."""
        key = action.key
        return key in self.outputs or key in self.internals

    # ------------------------------------------------------------------
    # Derived sets
    # ------------------------------------------------------------------

    @property
    def external(self) -> FrozenSet[FamilyKey]:
        return self.inputs | self.outputs

    @property
    def local(self) -> FrozenSet[FamilyKey]:
        return self.outputs | self.internals

    @property
    def all_families(self) -> FrozenSet[FamilyKey]:
        return self.inputs | self.outputs | self.internals

    def is_external_signature(self) -> bool:
        """True iff the signature has no internal actions (paper 2.1)."""
        return not self.internals

    def external_signature(self) -> "ActionSignature":
        """The external action signature obtained by dropping internals."""
        return ActionSignature(self.inputs, self.outputs, frozenset())

    # ------------------------------------------------------------------
    # Hiding (paper, Section 2.6)
    # ------------------------------------------------------------------

    def hide(self, families: Iterable[FamilyKey]) -> "ActionSignature":
        """Reclassify the given output families as internal.

        Implements the signature component of ``hide_Phi`` from the paper.
        ``families`` must all be output families of this signature.
        """
        phi = _as_keys(families)
        if not phi <= self.outputs:
            raise SignatureError(
                "can only hide output actions: %r are not outputs"
                % sorted(phi - self.outputs)
            )
        return ActionSignature(
            self.inputs, self.outputs - phi, self.internals | phi
        )


# ----------------------------------------------------------------------
# Composition of signatures (paper, Section 2.5.1)
# ----------------------------------------------------------------------


def strongly_compatible(signatures: Iterable[ActionSignature]) -> bool:
    """Check the strong-compatibility conditions of Section 2.5.1.

    For a finite collection the third condition (no action in infinitely
    many signatures) is automatic, so the checks are:

    1. no family is an output of two signatures, and
    2. no internal family of one signature appears in another.
    """
    return not compatibility_conflicts(signatures)


def compatibility_conflicts(
    signatures: Iterable[ActionSignature],
    names: Optional[Sequence[str]] = None,
) -> List[Conflict]:
    """Every strong-compatibility violation in the collection.

    Returns one :data:`Conflict` per offending family key, naming the
    components that own it (``names`` defaults to positional labels).
    Empty iff :func:`strongly_compatible` holds.
    """
    sigs = list(signatures)
    if names is None:
        names = [f"component {i}" for i in range(len(sigs))]
    conflicts: List[Conflict] = []
    for i, si in enumerate(sigs):
        for j in range(i + 1, len(sigs)):
            for family in sorted(si.outputs & sigs[j].outputs, key=repr):
                conflicts.append(
                    (family, f"an output of both {names[i]} and {names[j]}")
                )
    for i, si in enumerate(sigs):
        for j, sj in enumerate(sigs):
            if i == j:
                continue
            for family in sorted(si.internals & sj.all_families, key=repr):
                conflicts.append(
                    (
                        family,
                        f"internal to {names[i]} but also an action of "
                        f"{names[j]}",
                    )
                )
    return conflicts


def compose_signatures(signatures: Iterable[ActionSignature]) -> ActionSignature:
    """The composition ``S = prod_i S_i`` of strongly compatible signatures.

    Per the paper: outputs are the union of component outputs; internals
    the union of component internals; inputs are component inputs that are
    outputs of no component.
    """
    sigs = list(signatures)
    conflicts = compatibility_conflicts(sigs)
    if conflicts:
        raise SignatureError(
            "signatures are not strongly compatible: "
            + _describe_conflicts(conflicts),
            kind="compatibility",
            conflicts=conflicts,
        )
    return union_signature(sigs)


def union_signature(sigs: Sequence[ActionSignature]) -> ActionSignature:
    """:func:`compose_signatures` for a caller that already checked
    strong compatibility."""
    all_inputs: FrozenSet[FamilyKey] = frozenset().union(
        *(s.inputs for s in sigs)
    ) if sigs else frozenset()
    all_outputs: FrozenSet[FamilyKey] = frozenset().union(
        *(s.outputs for s in sigs)
    ) if sigs else frozenset()
    all_internals: FrozenSet[FamilyKey] = frozenset().union(
        *(s.internals for s in sigs)
    ) if sigs else frozenset()
    return ActionSignature(
        all_inputs - all_outputs, all_outputs, all_internals
    )

"""Delivery sets (paper, Section 6.1) and the ``del`` surgery (Section 6.3).

A *delivery set* is a set ``S`` of pairs ``(i, j)`` of positive integers
such that

* for each positive integer ``j`` there is a *unique* pair ``(i, j)`` in
  ``S`` (every receive slot is assigned a send index), and
* for each positive integer ``i`` there is *at most one* pair ``(i, j)``
  (no send index is delivered twice).

``(i, j) in S`` correlates the ``j``-th ``receive_pkt`` event with the
``i``-th ``send_pkt`` event.  A send index appearing in no pair is a
*lost* packet.  A *monotone* delivery set (no ``(i1,j1),(i2,j2)`` with
``i1 < i2`` and ``j1 >= j2``) yields FIFO behavior.

Delivery sets are infinite objects; we represent them with an explicit
finite prefix plus an eventually-FIFO tail:

* ``prefix[j-1]`` gives the send index for receive slot ``j`` for
  ``j = 1 .. len(prefix)``;
* for ``j > len(prefix)`` the send index is ``j + tail_offset``.

Every construction in the paper's lemmas (6.3 clean states, 6.5-6.7
waiting sequences, 6.6 subsequence losses) performs finite surgery on the
prefix and re-normalizes the tail, which this representation expresses
exactly.

The seeded generators (:func:`random_lossy_fifo`,
:func:`random_reordering`) fix ``S`` the way the paper does: only as far
as a schedule has consumed it.  Their sets draw from the seed block by
block, on demand: :meth:`DeliverySet.source_of` draws until slot ``j``
is covered, so a run pays for the receive slots it reads, not for the
whole horizon.  Anything that needs the whole value (``prefix``,
``tail_offset``, equality, pickling, ``repr``, the surgeries) draws the
rest first, validates it, and drops the generator; the finished set is
bit-identical to drawing every block up front and holds what a
constructed set holds.

Hashing does not draw the rest.  A set hashes the send indices of its
first :data:`HASH_WINDOW` receive slots (:meth:`DeliverySet.sources`),
so a seeded set draws only the blocks covering them, which a run has
usually drawn already.  Equal sets agree on every slot, so they hash
equal; sets that differ only past the window share a hash but still
compare unequal.  Every visited channel state carries its set, so the
set hashes once and keeps the value (:func:`~repro.hashing.cached_hash`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Tuple

from ..hashing import cached_hash

#: Receive slots a delivery set's hash covers (see module docs).
HASH_WINDOW = 32


class DeliverySetError(ValueError):
    """Raised when constructing an ill-formed delivery set."""


class _Expansion:
    """The part of a seeded delivery set not drawn yet.

    ``blocks`` yields lists of surviving send indices in slot order;
    ``drawn`` holds the slots drawn so far.  Once ``blocks`` is spent,
    the tail starts after ``horizon``.  ``monotone`` records that the
    generator can only produce a monotone set.
    """

    __slots__ = ("blocks", "drawn", "horizon", "monotone")

    def __init__(
        self, blocks: Iterator[List[int]], horizon: int, monotone: bool
    ) -> None:
        self.blocks = blocks
        self.drawn: List[int] = []
        self.horizon = horizon
        self.monotone = monotone

    def cover(self, j: int) -> bool:
        """Draw blocks until slot ``j`` is drawn; False if they run out first."""
        drawn = self.drawn
        for block in self.blocks:
            drawn.extend(block)
            if len(drawn) >= j:
                return True
        return False


class _UntilDrawn:
    """The class-level default of a :class:`DeliverySet` field.

    A non-data descriptor: a set holding the field reads it from the
    instance and never gets here.  Only a seeded set still drawing lacks
    its fields; reading one draws the rest, after which the set holds
    both fields like any other.  ``dataclass`` reads the default through
    ``__get__`` on the class.  (A ``__getattr__`` hook would do the same
    but slow every attribute read on every set.)
    """

    def __init__(self, default) -> None:
        self.default = default

    def __set_name__(self, owner, name: str) -> None:
        self.name = name

    def __get__(self, instance, owner=None):
        if instance is None:
            return self.default
        instance._materialize()
        return getattr(instance, self.name)


@cached_hash
@dataclass(frozen=True)
class DeliverySet:
    """A delivery set with finite prefix and FIFO tail (see module docs)."""

    prefix: Tuple[int, ...] = _UntilDrawn(())
    tail_offset: int = _UntilDrawn(0)

    #: A seeded set's undrawn rest (an :class:`_Expansion`), or None once
    #: the value is whole.  Not annotated, so it is no dataclass field.
    #: Every whole set holds it as None (see ``__post_init__``), so the
    #: check in :meth:`source_of` is a plain instance read.
    _pending = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "_pending", None)
        prefix = self.prefix
        if prefix and min(prefix) < 1:
            raise DeliverySetError("send indices must be positive")
        if len(set(prefix)) != len(prefix):
            raise DeliverySetError(
                "a send index may be delivered at most once"
            )
        first_tail = len(prefix) + 1 + self.tail_offset
        if first_tail < 1:
            raise DeliverySetError(
                "tail would assign non-positive send indices"
            )
        if prefix and max(prefix) >= first_tail:
            raise DeliverySetError(
                "tail send indices must not collide with the prefix "
                f"(prefix max {max(prefix)}, first tail {first_tail})"
            )

    # ------------------------------------------------------------------
    # Seeded sets: drawn on demand
    # ------------------------------------------------------------------

    @classmethod
    def _seeded(
        cls, blocks: Iterator[List[int]], horizon: int, monotone: bool
    ) -> "DeliverySet":
        """A set whose prefix is the concatenated ``blocks``, drawn on demand."""
        delivery = object.__new__(cls)
        object.__setattr__(
            delivery, "_pending", _Expansion(blocks, horizon, monotone)
        )
        return delivery

    def _materialize(self) -> None:
        """Draw the rest, validate, and keep only the finished value."""
        # Attribute writes, never ``self.__dict__``: reading that would
        # give every drawn set a dict object, which an eager set lacks.
        pending = self._pending
        drawn = pending.drawn
        for block in pending.blocks:
            drawn.extend(block)
        object.__setattr__(self, "prefix", tuple(drawn))
        object.__setattr__(self, "tail_offset", pending.horizon - len(drawn))
        self.__post_init__()

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @staticmethod
    def fifo() -> "DeliverySet":
        """The identity delivery set ``{(j, j)}``: FIFO, no losses."""
        return DeliverySet((), 0)

    @staticmethod
    def from_pairs(
        pairs: Iterable[Tuple[int, int]], tail_offset: Optional[int] = None
    ) -> "DeliverySet":
        """Build from explicit ``(i, j)`` pairs covering ``j = 1..n``.

        The pairs must cover each receive slot ``1..n`` exactly once.  If
        ``tail_offset`` is omitted, the smallest collision-free FIFO tail
        is chosen.
        """
        by_j = {}
        for i, j in pairs:
            if j in by_j:
                raise DeliverySetError(f"duplicate receive slot {j}")
            by_j[j] = i
        if sorted(by_j) != list(range(1, len(by_j) + 1)):
            raise DeliverySetError(
                "pairs must cover receive slots 1..n contiguously"
            )
        prefix = tuple(by_j[j] for j in range(1, len(by_j) + 1))
        if tail_offset is None:
            tail_offset = (max(prefix) if prefix else 0) - len(prefix)
        return DeliverySet(prefix, tail_offset)

    # ------------------------------------------------------------------
    # Membership and lookup
    # ------------------------------------------------------------------

    def source_of(self, j: int) -> int:
        """The unique send index ``i`` with ``(i, j)`` in the set."""
        if j < 1:
            raise DeliverySetError("receive slots are positive")
        pending = self._pending
        if pending is not None:
            if j <= len(pending.drawn) or pending.cover(j):
                return pending.drawn[j - 1]
            # The horizon is used up: the tail is known.
            self._materialize()
        prefix = self.prefix
        if j <= len(prefix):
            return prefix[j - 1]
        return j + self.tail_offset

    def _hash_key(self) -> Tuple[int, ...]:
        """What :func:`~repro.hashing.cached_hash` hashes: the window."""
        return self.sources(HASH_WINDOW)

    def sources(self, up_to_slot: int) -> Tuple[int, ...]:
        """The send indices of slots ``1..up_to_slot``, in slot order.

        ``source_of`` for each slot, as one slice of the drawn prefix: a
        seeded set draws only as far as ``up_to_slot``.
        """
        if up_to_slot < 1:
            return ()
        pending = self._pending
        if pending is not None:
            if up_to_slot <= len(pending.drawn) or pending.cover(up_to_slot):
                return tuple(pending.drawn[:up_to_slot])
            self._materialize()
        prefix = self.prefix
        if up_to_slot <= len(prefix):
            return prefix[:up_to_slot]
        first_tail = len(prefix) + 1 + self.tail_offset
        return prefix + tuple(
            range(first_tail, up_to_slot + 1 + self.tail_offset)
        )

    def slot_of(self, i: int) -> Optional[int]:
        """The receive slot of send index ``i``, or None if ``i`` is lost."""
        if i < 1:
            raise DeliverySetError("send indices are positive")
        for j, source in enumerate(self.prefix, start=1):
            if source == i:
                return j
        j = i - self.tail_offset
        if j > len(self.prefix):
            return j
        return None

    def contains(self, i: int, j: int) -> bool:
        return self.source_of(j) == i

    def is_lost(self, i: int) -> bool:
        """True iff send index ``i`` is assigned to no receive slot."""
        return self.slot_of(i) is None

    def lost_indices(self, up_to: int) -> Tuple[int, ...]:
        """All lost send indices in ``1..up_to``."""
        return tuple(i for i in range(1, up_to + 1) if self.is_lost(i))

    def pairs(self, up_to_slot: int) -> Iterator[Tuple[int, int]]:
        """Iterate ``(i, j)`` pairs for slots ``1..up_to_slot``."""
        for j in range(1, up_to_slot + 1):
            yield (self.source_of(j), j)

    # ------------------------------------------------------------------
    # Monotonicity (Section 6.2)
    # ------------------------------------------------------------------

    def is_monotone(self) -> bool:
        """True iff the set is monotone (yields FIFO delivery).

        A seeded set whose generator only draws monotone sets answers
        without drawing; any other set is drawn in full first.
        """
        pending = self._pending
        if pending is not None and pending.monotone:
            return True
        last = 0
        for i in self.prefix:
            if i <= last:
                return False
            last = i
        return last < len(self.prefix) + 1 + self.tail_offset

    # ------------------------------------------------------------------
    # The ``del`` surgery (Section 6.3)
    # ------------------------------------------------------------------

    def delete_slot(self, j: int) -> "DeliverySet":
        """``del(S, (i, j))``: drop the pair at slot ``j``, shifting later slots.

        Per the paper: pairs at slots below ``j`` are unchanged; the pair
        at ``j`` is removed (its send index becomes lost); each pair at a
        slot ``j' > j`` moves down to slot ``j' - 1``.  Monotone sets stay
        monotone.
        """
        if j < 1:
            raise DeliverySetError("receive slots are positive")
        if j <= len(self.prefix):
            prefix = self.prefix[: j - 1] + self.prefix[j:]
            return DeliverySet(prefix, self.tail_offset + 1)
        # The deleted slot lies in the tail: materialize the tail entries
        # between the prefix and j, then shift.
        extra = tuple(
            jj + self.tail_offset for jj in range(len(self.prefix) + 1, j)
        )
        return DeliverySet(self.prefix + extra, self.tail_offset + 1)

    def delete_slots(self, slots: Iterable[int]) -> "DeliverySet":
        """Delete several slots (expressed in the *original* numbering)."""
        result = self
        for offset, j in enumerate(sorted(set(slots))):
            result = result.delete_slot(j - offset)
        return result

    def delete_pair(self, i: int, j: int) -> "DeliverySet":
        """``del(S, (i, j))`` with the pair given explicitly."""
        if self.source_of(j) != i:
            raise DeliverySetError(f"({i}, {j}) is not in the delivery set")
        return self.delete_slot(j)


# ----------------------------------------------------------------------
# Scripted generators used by the simulation harness
# ----------------------------------------------------------------------

#: Send indices in the first block of a lossy FIFO draw.
_FIFO_BLOCK = 64


def _check_parameters(loss_rate: float, horizon: int) -> None:
    if not 0.0 <= loss_rate < 1.0:
        raise DeliverySetError("loss_rate must be in [0, 1)")
    if horizon < 0:
        raise DeliverySetError("horizon must be non-negative")


def random_lossy_fifo(
    seed: int, loss_rate: float, horizon: int
) -> DeliverySet:
    """A monotone delivery set losing each send independently w.p. ``loss_rate``.

    The loss pattern covers send indices ``1..horizon``; beyond the
    horizon the set is FIFO with no losses.  Deterministic in ``seed``;
    drawn on demand (see module docs).
    """
    _check_parameters(loss_rate, horizon)
    return DeliverySet._seeded(
        _lossy_fifo_blocks(random.Random(seed), loss_rate, horizon),
        horizon,
        monotone=True,
    )


def _lossy_fifo_blocks(
    rng: random.Random, loss_rate: float, horizon: int
) -> Iterator[List[int]]:
    # Doubling blocks: a short run draws one small block, and drawing a
    # whole horizon still takes only a handful.
    start, size = 1, _FIFO_BLOCK
    while start <= horizon:
        stop = min(start + size, horizon + 1)
        yield [i for i in range(start, stop) if rng.random() >= loss_rate]
        start, size = stop, 2 * size


def random_reordering(
    seed: int, loss_rate: float, window: int, horizon: int
) -> DeliverySet:
    """A (generally non-monotone) delivery set with bounded reordering.

    Send indices ``1..horizon`` are shuffled within blocks of size
    ``window`` and each is lost independently with probability
    ``loss_rate``; beyond the horizon the set is FIFO.  Deterministic in
    ``seed``; drawn on demand (see module docs).
    """
    if window < 1:
        raise DeliverySetError("window must be positive")
    _check_parameters(loss_rate, horizon)
    return DeliverySet._seeded(
        _reordering_blocks(random.Random(seed), loss_rate, window, horizon),
        horizon,
        monotone=window == 1,
    )


def _reordering_blocks(
    rng: random.Random, loss_rate: float, window: int, horizon: int
) -> Iterator[List[int]]:
    for start in range(1, horizon + 1, window):
        block = list(range(start, min(start + window, horizon + 1)))
        rng.shuffle(block)
        yield [i for i in block if rng.random() >= loss_rate]

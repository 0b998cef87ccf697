"""Structural hashes computed once per value.

Run states are deep values: every composed fuzz state carries two
channel states, and each permissive channel state drags a delivery set
whose prefix holds hundreds of ints.  CPython caches no hash for a
frozen dataclass, so every dict or set probe re-walks the whole
structure.  :func:`cached_hash` makes a frozen dataclass hash its
fields on first use and keep the result on the instance.

Equality stays the dataclass-generated field-by-field ``__eq__``.  The
hash value is the generated one, the hash of the tuple of compared
fields (``compare=False`` fields take no part, as in ``__eq__``),
unless the class defines ``_hash_key``: then it is
``hash(_hash_key())``, which must agree on equal values.  A delivery
set hashes only a window of its first slots that way, so hashing never
draws a seeded set's rest (:mod:`repro.channels.delivery_set`).  The
cached value is never pickled: string hashes are per-process
(``PYTHONHASHSEED``), so a value that crosses a process boundary
recomputes its hash on the other side.
"""

from __future__ import annotations

import dataclasses
from operator import attrgetter


def cached_hash(cls):
    """Class decorator for frozen dataclasses: hash once, keep it.

    Apply it above ``@dataclass(frozen=True)``.  Values built by the
    constructor, :func:`dataclasses.replace` or unpickling all start
    without a cache, so they hash like a freshly built equal value.
    """
    fields = dataclasses.fields(cls)
    names = tuple(field.name for field in fields)
    # Over two or more fields the getter returns the tuple the generated
    # ``__hash__`` hashes, so the value matches it exactly.
    compared = (field.name for field in fields if field.compare)
    key = cls.__dict__.get("_hash_key", attrgetter(*compared))

    def __hash__(self) -> int:
        value = self._cached_hash
        if value is None:
            value = hash(key(self))
            object.__setattr__(self, "_cached_hash", value)
        return value

    def __getstate__(self) -> dict:
        # Every field, compared or not, and nothing else, read as
        # attributes so a value that computes a field on first read (a
        # seeded delivery set) pickles its finished form.
        return {name: getattr(self, name) for name in names}

    cls._cached_hash = None
    cls.__hash__ = __hash__
    cls.__getstate__ = __getstate__
    return cls

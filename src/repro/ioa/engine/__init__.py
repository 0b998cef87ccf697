"""Exploration backends behind :func:`repro.ioa.explorer.explore`.

``explore()`` runs closed compositions on the compiled core and every
other call on the pure-Python engine; the pieces are exposed here for
direct use and benchmarking:

* :mod:`.core` -- the pure-Python engine: one serial trace-free BFS
  loop, run over an automaton's plain states or, for a composition,
  over interned codes with memoized component stepping;
* :mod:`.interning` -- the dense-id intern table and the slice table;
* :mod:`.encoding` -- the flat state encoder (tuple and packed forms)
  shared by both backends, with one slice table per slot;
* :mod:`.accel` -- the compiled packed-key search core (built on
  demand from ``_accel.c``).
"""

from .core import ExplorationResult, explore_engine
from .encoding import EncodingOverflow, StateEncoder
from .interning import InternTable

__all__ = [
    "EncodingOverflow",
    "ExplorationResult",
    "InternTable",
    "StateEncoder",
    "explore_engine",
]

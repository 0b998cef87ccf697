"""Exploration backends behind :func:`repro.ioa.explorer.explore`.

``explore()`` runs closed compositions on the compiled core and every
other call on the pure-Python engine; the pieces are exposed here for
direct use and benchmarking:

* :mod:`.core` -- serial trace-free BFS with state interning and
  memoized composition stepping (the pure-Python engine);
* :mod:`.interning` -- the dense-id intern table;
* :mod:`.encoding` -- the flat state encoder (tuple and packed forms)
  shared by both backends;
* :mod:`.accel` -- the compiled packed-key search core (built on
  demand from ``_accel.c``);
* :mod:`.bench` -- the states/sec benchmark emitter behind
  ``bench/BENCH_explore.json``.
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

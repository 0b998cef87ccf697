"""High-throughput exploration engine (see :mod:`.core`).

The engine is the backend of :func:`repro.ioa.explorer.explore`; the
pieces are exposed here for direct use and benchmarking:

* :mod:`.core` -- serial trace-free BFS with state interning and
  memoized composition stepping;
* :mod:`.interning` -- the dense-id intern table;
* :mod:`.encoding` -- the flat state encoder (tuple and packed forms)
  shared by every backend;
* :mod:`.accel` -- the compiled packed-key search core (built on
  demand from ``_accel.c``, pure-Python fallback otherwise);
* :mod:`.diskstore` -- the disk-backed sharded frontier/visited store;
* :mod:`.bench` -- the states/sec benchmark emitter behind
  ``bench/BENCH_explore.json``.
"""

from .core import ExplorationResult, explore_engine
from .diskstore import DiskStateSet, DiskStore, explore_disk
from .encoding import EncodingOverflow, StateEncoder
from .interning import InternTable

__all__ = [
    "DiskStateSet",
    "DiskStore",
    "EncodingOverflow",
    "ExplorationResult",
    "InternTable",
    "StateEncoder",
    "explore_disk",
    "explore_engine",
]

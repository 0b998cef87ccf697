"""Compiled packed-key exploration backend.

:func:`explore_accel` runs the bounded BFS of
:func:`~repro.ioa.explorer.explore` inside a small C extension
(``_accel.c``): states travel as 64-bit packed codes from the shared
:class:`~repro.ioa.engine.encoding.StateEncoder`, the visited table and
the per-slice stepping memos are flat C hash tables, and Python is only
re-entered on cache misses -- once per distinct (slice, action) step,
once per distinct slice's enabled set, and once per distinct invariant
projection.  The expansion order and the budget/violation semantics
replicate the pure-Python engine exactly, so the three-way differential
suite (reference vs engine vs accel) can require identical results.

The extension is built on demand with the system C compiler (``cc -O2
-shared -fPIC``) into a per-source-hash cache directory -- no package
installation involved -- and loaded from there.  A build or load
failure raises :class:`AccelUnavailable`; a composition too wide for
packed keys, or a state space that outgrows the packed bit budget,
raises :class:`~repro.ioa.engine.encoding.EncodingOverflow`.
:func:`~repro.ioa.explorer.explore` only calls this backend for closed
compositions and turns either signal into a fallback to the pure-Python
engine (``result.fallback``, counted as ``explore.accel_fallback``).
Set ``REPRO_ACCEL_REQUIRE=1`` to turn a build or load failure into a
hard error (CI does, so the differential job cannot silently skip the
compiled path).

Invariant projection: an invariant callable may declare the component
slots it reads via a ``state_slots`` attribute (a tuple of slot
indices).  The accel backend then caches verdicts per projected key, so
the Python invariant runs once per distinct combination of those
slices instead of once per state.  The declaration is a promise -- the
callable must depend on no other slot -- and is verified by the
differential suite for the shipped invariants.
"""

from __future__ import annotations

import hashlib
import importlib.util
import os
import subprocess
import sys
import sysconfig
import threading
from typing import Any, Iterator, List, Optional, Set, Tuple

try:  # Python 3.9+: collections.abc.Set is subscriptable but we only subclass
    from collections.abc import Set as AbstractSet
except ImportError:  # pragma: no cover - unreachable on supported versions
    from typing import AbstractSet  # type: ignore[assignment]

from ...obs import current_tracer
from ..automaton import State
from ..composition import Composition
from .core import ExplorationResult, Invariant
from .encoding import EncodingOverflow, StateEncoder

__all__ = [
    "AccelUnavailable",
    "LazyStateSet",
    "accel_backend_id",
    "ensure_built",
    "explore_accel",
]


class AccelUnavailable(RuntimeError):
    """The compiled backend cannot run this exploration.

    Raised for build/load failures, and by :func:`explore_accel` for a
    call outside its preconditions (which the dispatcher never makes);
    the dispatcher treats it as "fall back to the pure-Python engine".
    """


_LOCK = threading.Lock()
_MODULE: Optional[Any] = None
_MODULE_ERROR: Optional[str] = None


def _source_path() -> str:
    return os.path.join(os.path.dirname(__file__), "_accel.c")


def _cache_root() -> str:
    override = os.environ.get("REPRO_ACCEL_CACHE")
    if override:
        return override
    return os.path.join(os.path.expanduser("~"), ".cache", "repro-accel")


def _build_dir_and_target() -> Tuple[str, str]:
    """The per-source-hash cache directory and the shared-object path."""
    source = _source_path()
    with open(source, "rb") as handle:
        digest = hashlib.sha256(handle.read()).hexdigest()[:16]
    tag = "cpython-{}{}".format(sys.version_info[0], sys.version_info[1])
    build_dir = os.path.join(_cache_root(), "{}-{}".format(tag, digest))
    suffix = sysconfig.get_config_var("EXT_SUFFIX") or ".so"
    return build_dir, os.path.join(build_dir, "_repro_accel" + suffix)


def ensure_built(verbose: bool = False) -> str:
    """Compile the extension if needed; the shared-object path.

    Uses the system compiler directly (honouring ``$CC``), so nothing
    is installed anywhere: the artifact lands in a cache directory
    keyed by Python version and source hash, which doubles as the CI
    cache key.  Raises :class:`AccelUnavailable` when no compiler or
    Python headers are available.
    """
    build_dir, target = _build_dir_and_target()
    if os.path.exists(target):
        return target
    source = _source_path()
    include = sysconfig.get_paths()["include"]
    compiler = os.environ.get("CC") or "cc"
    os.makedirs(build_dir, exist_ok=True)
    scratch = target + ".tmp{}".format(os.getpid())
    command = [
        compiler,
        "-O2",
        "-fPIC",
        "-shared",
        "-I{}".format(include),
        source,
        "-o",
        scratch,
    ]
    if verbose:
        print("building accel backend:", " ".join(command))
    try:
        proc = subprocess.run(
            command,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            timeout=300,
        )
    except (OSError, subprocess.SubprocessError) as exc:
        raise AccelUnavailable(
            "cannot run C compiler {!r}: {}".format(compiler, exc)
        ) from exc
    if proc.returncode != 0:
        raise AccelUnavailable(
            "accel build failed ({} exit {}):\n{}".format(
                compiler, proc.returncode, proc.stderr[-2000:]
            )
        )
    # Atomic publish, so concurrent builders cannot load a half-written
    # shared object.
    os.replace(scratch, target)
    return target


def _load_module() -> Any:
    global _MODULE, _MODULE_ERROR
    if _MODULE is not None:
        return _MODULE
    if _MODULE_ERROR is not None:
        raise AccelUnavailable(_MODULE_ERROR)
    with _LOCK:
        if _MODULE is not None:
            return _MODULE
        try:
            target = ensure_built()
            spec = importlib.util.spec_from_file_location(
                "_repro_accel", target
            )
            if spec is None or spec.loader is None:
                raise AccelUnavailable(
                    "cannot load accel extension from {}".format(target)
                )
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
        except AccelUnavailable as exc:
            _MODULE_ERROR = str(exc)
            raise
        except Exception as exc:  # loader errors become unavailability
            _MODULE_ERROR = "accel extension failed to load: {}".format(exc)
            raise AccelUnavailable(_MODULE_ERROR) from exc
        _MODULE = module
    return _MODULE


def accel_backend_id() -> Optional[str]:
    """A short identifier of the loaded backend, or None if unavailable."""
    try:
        _load_module()
    except AccelUnavailable:
        return None
    build_dir, _ = _build_dir_and_target()
    return "c-" + os.path.basename(build_dir)


class LazyStateSet(AbstractSet):
    """Set view over packed state keys, decoded on demand.

    ``explore`` promises a set of decoded states, but most consumers
    only take ``len()`` (the states/sec metric, the run report).
    Decoding and deep-hashing every state eagerly would cost more than
    the whole compiled search, so the accel backend returns this view:
    sized and probe-able without decoding anything, materializing the
    real set only on first iteration or whole-set comparison.
    """

    __slots__ = ("_search", "_count", "_encoder", "_keys", "_key_set",
                 "_materialized")

    def __init__(self, search: Any, encoder: StateEncoder):
        self._search = search
        self._count = search.count()
        self._encoder = encoder
        self._keys: Optional[List[int]] = None
        self._key_set: Optional[Set[int]] = None
        self._materialized: Optional[Set[State]] = None

    def _packed_keys(self) -> List[int]:
        if self._keys is None:
            self._keys = self._search.keys()
        return self._keys

    def _states(self) -> Set[State]:
        if self._materialized is None:
            decode = self._encoder.decode_packed
            self._materialized = {
                decode(key) for key in self._packed_keys()
            }
        return self._materialized

    def __len__(self) -> int:
        # Packed keys are distinct by construction (the visited table
        # deduplicates), and the encoding is a bijection.
        return self._count

    def __iter__(self) -> Iterator[State]:
        return iter(self._states())

    def __contains__(self, state: object) -> bool:
        if self._materialized is not None:
            return state in self._materialized
        encoder = self._encoder
        if not isinstance(state, tuple) or len(state) != encoder.n:
            return False
        key = 0
        for slot, shift in enumerate(encoder.shifts):
            # Non-mutating probe: an unknown slice was never visited.
            try:
                sid = encoder.slice_tables[slot].get(state[slot])
            except TypeError:  # unhashable probe value
                return False
            if sid is None or sid >= encoder.slot_capacity:
                return False
            key |= sid << shift
        if self._key_set is None:
            self._key_set = set(self._packed_keys())
        return key in self._key_set

    def __repr__(self) -> str:
        return "LazyStateSet({} states)".format(self._count)


def _projection_mask(
    invariant: Invariant, encoder: StateEncoder
) -> int:
    """The packed-key mask of the slots an invariant declares it reads.

    Zero (no projection, one call per state) unless the callable
    carries a valid ``state_slots`` declaration.
    """
    slots = getattr(invariant, "state_slots", None)
    if not slots:
        return 0
    mask = 0
    per_slot = (1 << encoder.bits_per_slot) - 1
    try:
        for slot in slots:
            if not 0 <= slot < encoder.n:
                return 0
            mask |= per_slot << encoder.shifts[slot]
    except TypeError:
        return 0
    return mask


def explore_accel(
    automaton: Any,
    invariant: Invariant = None,
    max_states: int = 50_000,
    max_depth: int = 10_000,
    initial_state: Optional[State] = None,
) -> ExplorationResult:
    """Compiled-backend exploration (same contract as the engine).

    Raises :class:`AccelUnavailable` when the backend cannot be built
    or loaded, or the call is not a closed composition; raises
    :class:`EncodingOverflow` when the composition or its state space
    outgrows the 64-bit packing.  Both are fallback signals, never
    wrong answers.
    """
    if not isinstance(automaton, Composition):
        raise AccelUnavailable("accel backend requires a Composition")
    module = _load_module()

    encoder = StateEncoder(automaton)
    if encoder.n * encoder.bits_per_slot > 64 or encoder.n > 64:
        raise EncodingOverflow("composition too wide for packed keys")

    start = (
        initial_state
        if initial_state is not None
        else automaton.initial_state()
    )
    if invariant is not None and not invariant(start):
        return ExplorationResult({start}, False, (start, ()))
    start_key = encoder.encode_packed(start)  # may raise EncodingOverflow

    invariant_cb: Any = None
    proj_mask = 0
    if invariant is not None:
        decode_packed = encoder.decode_packed
        checker = invariant

        def _invariant_cb(key: int) -> bool:
            return bool(checker(decode_packed(key)))

        invariant_cb = _invariant_cb
        proj_mask = _projection_mask(invariant, encoder)

    # The C core range-checks every successor slice id against the slot
    # budget (raising OverflowError), so the encoder's bound methods
    # are passed straight through -- no per-call Python wrapper.
    search = module.AccelSearch(
        encoder.n,
        encoder.bits_per_slot,
        encoder.enabled_pairs,
        encoder.successor_sids,
    )
    tracer = current_tracer()
    try:
        # One span for the whole compiled search (the C loop has no
        # per-layer hook); a no-op when tracing is off.
        with tracer.span("explore.accel", slots=encoder.n):
            status, truncated, violation_index = search.run(
                start_key, max_states, max_depth, invariant_cb, proj_mask
            )
    except OverflowError as exc:
        raise EncodingOverflow(str(exc)) from exc

    if tracer.enabled:
        stats = search.stats()
        tracer.count("explore.states", stats["states"])
        tracer.count("explore.transitions", stats["transitions"])
        tracer.count(
            "explore.slices_interned", encoder.slices_interned()
        )
        tracer.count("explore.actions_interned", len(encoder.actions))
        tracer.count("explore.accel_steps", stats["step_calls"])
        tracer.count(
            "explore.accel_invariant_calls", stats["invariant_calls"]
        )

    if status == 1:
        # Violation: decode eagerly (counterexample paths are rare and
        # short) and reconstruct the layer-minimal trace from the
        # parent log.
        decode_packed = encoder.decode_packed
        states = {decode_packed(key) for key in search.keys()}
        bad_key, _, _ = search.entry(violation_index)
        actions = []
        index = violation_index
        while True:
            _, parent, token = search.entry(index)
            if parent < 0:
                break
            actions.append(encoder.actions.values[token])
            index = parent
        actions.reverse()
        return ExplorationResult(
            states,
            bool(truncated),
            (decode_packed(bad_key), tuple(actions)),
        )
    return ExplorationResult(
        LazyStateSet(search, encoder), bool(truncated)
    )

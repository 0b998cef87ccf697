"""High-throughput bounded BFS over I/O automata.

This is the serial heart of the exploration engine behind
:func:`repro.ioa.explorer.explore`.  It returns exactly what the naive
breadth-first explorer returns -- the same reachable-state set, the
same ``truncated`` flag, and a shortest (layer-minimal) counterexample
-- but restructures the search around three ideas:

* **Trace-free frontiers.**  The naive explorer carries the full
  ``(action, ...)`` trace tuple in every frontier entry, an O(depth)
  copy per enqueued state that dominates allocation on deep runs.  The
  engine instead records a parent-pointer map ``node -> (predecessor,
  label)`` (one dict slot per state) and reconstructs the
  counterexample by walking the pointers only when a violation is
  actually found.

* **State interning.**  For compositions, every component slice is
  assigned a dense integer id (:class:`.interning.InternTable`) and the
  search runs over *encoded* states -- tuples of ints -- so ``seen``
  probes hash machine integers instead of nested dataclasses.  The
  decode tables double as the canonical-state store: decoded tuples
  share slice objects, giving identity fast paths to any later
  equality check.

* **Memoized stepping.**  Each slot's
  :class:`~.interning.SliceTable` maps (slice id, action token) to
  successor slice ids and slice id to the slice's enabled local
  actions, so the cross-product step never re-asks a component about a
  slice value it has already answered for.  Most steps touch 1-2 of
  the components; every other slice's answers come from the tables.

There is one search loop, :func:`explore_engine`.  It runs over one of
two node spaces: :class:`_Plain`, whose nodes are an automaton's own
states and whose labels are actions, or :class:`_Encoded`, whose nodes
are a composition's :class:`~.encoding.StateEncoder` codes and whose
labels are action tokens.  A space only translates (``encode``,
``decode``, ``states``, ``trace``) and steps (``expand``); the loop
owns the parent map, the budgets, the input-enabledness and invariant
checks and the per-layer instrumentation.

Budget semantics (documented contract): when the ``max_states`` budget
is hit the search stops *immediately* -- it breaks out of both the
successor and the frontier loops -- rather than grinding through the
remaining successors of the current layer.  Every state counted in
``states`` was invariant-checked when it was first reached, including
the queued-but-unexpanded frontier tail, so a truncated ``ok`` result
still certifies every reported state.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, product
from typing import (
    TYPE_CHECKING,
    AbstractSet,
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
    Union,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ...obs import RunReport, Tracer

from ...obs import current_tracer
from ..actions import Action
from ..automaton import Automaton, State
from ..composition import Composition
from .encoding import StateEncoder
from .interning import SliceTable

Environment = Optional[Callable[[State], Iterable[Action]]]
Invariant = Optional[Callable[[State], bool]]
#: A search node: a plain state, or a composition's encoded state.
Node = Any
#: Parent pointers: node -> (predecessor node, label), None at the start.
Parents = Dict[Node, Optional[Tuple[Node, Any]]]


class InputEnablednessError(RuntimeError):
    """An environment-offered input action was not enabled (Section 2.2).

    Raised only in ``validate=True`` debug runs: input-enabledness demands
    that every input action be enabled in every state, so an exploration
    that offers an input with no transition has found a broken automaton
    (this is :meth:`~repro.ioa.automaton.Automaton.check_input_enabled`
    wired into the engine's expansion loop).
    """

    def __init__(self, automaton: Automaton, state: State, action: Action):
        super().__init__(
            f"{automaton.name}: input action {action} is not enabled in "
            f"reachable state {state!r} (automaton is not input-enabled)"
        )
        self.automaton = automaton
        self.state = state
        self.action = action


@dataclass
class ExplorationResult:
    """Outcome of a bounded exploration.

    ``states`` is the set of distinct reachable states visited -- a
    plain ``set`` from the Python explorers, or a lazy set view
    (:class:`~repro.ioa.engine.accel.LazyStateSet`) from the compiled
    core, whose states would be expensive to decode eagerly; the view
    supports ``len``/``in``/iteration/equality like a real set.
    ``truncated`` is True when the state or depth budget was exhausted
    before the frontier emptied; ``violation`` carries the first
    invariant violation found, as a (state, trace) pair.  ``fallback``
    is the reason the compiled core could not run a call it was chosen
    for and the pure-Python engine answered instead (``None`` when the
    chosen backend ran).
    """

    states: AbstractSet[State]
    truncated: bool
    violation: Optional[Tuple[State, Tuple[Action, ...]]] = None
    fallback: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.violation is None

    def report(self, duration_s: float = 0.0) -> "RunReport":
        """This result as the unified :class:`~repro.obs.RunReport`."""
        from ...obs import STATUS_OK, STATUS_VIOLATION, RunReport

        details: Dict[str, object] = {"truncated": self.truncated}
        if self.violation is not None:
            _, trace = self.violation
            details["counterexample"] = [str(action) for action in trace]
        if self.fallback is not None:
            details["fallback"] = self.fallback
        return RunReport(
            command="explore",
            status=STATUS_OK if self.ok else STATUS_VIOLATION,
            counters={"explore.states": len(self.states)},
            duration_s=duration_s,
            details=details,
        )


def explore_engine(
    automaton: Automaton,
    environment: Environment = None,
    invariant: Invariant = None,
    max_states: int = 50_000,
    max_depth: int = 10_000,
    validate: bool = False,
    initial_state: Optional[State] = None,
) -> ExplorationResult:
    """Serial engine entry point (see module docstring).

    Compositions are searched over their interned codes, any other
    automaton over its plain states; the loop is the same.
    ``validate=True`` additionally checks, at every expanded state,
    that each environment-offered input action is enabled, raising
    :class:`InputEnablednessError` otherwise.  ``initial_state`` starts
    the search from the given (possibly unreachable) state instead of
    the automaton's own initial state.
    """
    start = (
        initial_state
        if initial_state is not None
        else automaton.initial_state()
    )
    if invariant is not None and not invariant(start):
        return ExplorationResult({start}, False, (start, ()))
    tracer = current_tracer()
    space: Union[_Plain, _Encoded] = (
        _Encoded(automaton, count_memo=tracer.enabled)
        if isinstance(automaton, Composition)
        else _Plain(automaton)
    )
    if tracer.enabled:
        tracer.count("explore.states", 1)  # the start state
    signature = automaton.signature if validate else None
    start_node = space.encode(start)
    # parents doubles as the seen set.
    parents: Parents = {start_node: None}
    layer: List[Node] = [start_node]
    depth = 0
    truncated = False
    violation: Optional[Tuple[State, Tuple[Action, ...]]] = None
    decode = space.decode
    expand = space.expand
    while layer:
        if depth >= max_depth:
            truncated = True
            break
        # Instrumentation is per-layer, never per-state: one span plus
        # three aggregate emissions per BFS layer (no-ops when tracing
        # is off), so the hot successor loop stays untouched.
        with tracer.span("explore.layer", depth=depth, width=len(layer)):
            next_layer: List[Node] = []
            fired = 0
            offered: Iterable[Action] = ()
            for node in layer:
                if environment is not None:
                    current = decode(node)
                    offered = list(environment(current))
                    if signature is not None:
                        for action in offered:
                            if signature.is_input(
                                action
                            ) and not automaton.transitions(current, action):
                                raise InputEnablednessError(
                                    automaton, current, action
                                )
                for label, successor in expand(node, offered):
                    fired += 1
                    if successor in parents:
                        continue
                    parents[successor] = (node, label)
                    if invariant is not None:
                        reached = decode(successor)
                        if not invariant(reached):
                            violation = (reached, space.trace(parents, successor))
                            # Reached, so counted with this layer's states.
                            next_layer.append(successor)
                            break
                    if len(parents) > max_states:
                        # Budget spent: stop the whole search at once
                        # (see module docstring for the contract).
                        del parents[successor]
                        truncated = True
                        break
                    next_layer.append(successor)
                if truncated or violation is not None:
                    break
            if tracer.enabled:
                tracer.count("explore.transitions", fired)
                tracer.count("explore.states", len(next_layer))
                tracer.gauge("explore.frontier", len(next_layer))
        if truncated or violation is not None:
            break
        layer = next_layer
        depth += 1
    space.emit_totals(tracer)
    return ExplorationResult(space.states(parents), truncated, violation)


def _reconstruct(parents: Dict, state) -> Tuple:
    """Walk parent pointers back to the start, returning the labels."""
    labels: List = []
    cursor = state
    while True:
        entry = parents[cursor]
        if entry is None:
            break
        cursor, label = entry
        labels.append(label)
    labels.reverse()
    return tuple(labels)


# ----------------------------------------------------------------------
# Node spaces
# ----------------------------------------------------------------------


class _Plain:
    """Any automaton: nodes are its states, labels its actions."""

    def __init__(self, automaton: Automaton):
        self.enabled = automaton.enabled_local_actions
        self.transitions = automaton.transitions

    def encode(self, state: State) -> State:
        return state

    def decode(self, node: State) -> State:
        return node

    def expand(
        self, state: State, offered: Iterable[Action]
    ) -> Iterator[Tuple[Action, State]]:
        """Yield ``(action, successor)``: enabled local actions first,
        then the offered inputs, as the naive explorer visits them."""
        transitions = self.transitions
        for action in chain(self.enabled(state), offered):
            for successor in transitions(state, action):
                yield action, successor

    def states(self, parents: Parents) -> Set[State]:
        return set(parents)

    def trace(self, parents: Parents, state: State) -> Tuple[Action, ...]:
        return _reconstruct(parents, state)

    def emit_totals(self, tracer: "Tracer") -> None:
        """Plain states intern nothing, so there is nothing to report."""


class _Encoded:
    """A composition: nodes are tuples of per-slot slice ids, labels
    action tokens.

    The mapping and the per-slice answers live in the space's
    :class:`StateEncoder` and its slot tables, so a slice value is
    stepped once per action no matter how many composed states contain
    it.  With ``count_memo`` (a traced run) the step lookups go through
    a counting shim whose totals :meth:`emit_totals` reports; an
    untraced run steps straight through the tables.
    """

    def __init__(self, composition: Composition, count_memo: bool):
        encoder = StateEncoder(composition)
        self.encoder = encoder
        self.tables = encoder.slice_tables
        self.encode = encoder.encode
        self.decode = encoder.decode
        self.successors = SliceTable.successors
        self.memo_queries = 0
        self.memo_hits = 0
        if count_memo:

            def counting(table: SliceTable, sid: int, token: int) -> Tuple[int, ...]:
                self.memo_queries += 1
                if token in table.steps[sid]:
                    self.memo_hits += 1
                return table.successors(sid, token)

            self.successors = counting

    def expand(
        self, encoded: Tuple[int, ...], offered: Iterable[Action]
    ) -> Iterator[Tuple[int, Tuple[int, ...]]]:
        """Yield ``(action token, successor encoded state)`` in the same
        deterministic order the naive explorer visits successors."""
        encoder = self.encoder
        tables = self.tables
        successors = self.successors
        tokens: List[int] = []
        for table, sid in zip(tables, encoded):
            tokens.extend(table.enabled_ids(sid))
        tokens.extend(map(encoder.actions.intern, offered))
        owners_of_token = encoder.owners_of_token
        if len(owners_of_token) < len(encoder.actions.values):
            owners_of_token = encoder.owners()
        for token in tokens:
            owners = owners_of_token[token]
            if not owners:
                continue
            if len(owners) == 1:
                slot = owners[0]
                for sid in successors(tables[slot], encoded[slot], token):
                    yield token, encoded[:slot] + (sid,) + encoded[slot + 1 :]
                continue
            per_owner: List[Tuple[int, ...]] = []
            for slot in owners:
                ids = successors(tables[slot], encoded[slot], token)
                if not ids:
                    break
                per_owner.append(ids)
            else:
                for combo in product(*per_owner):
                    successor = list(encoded)
                    for position, slot in enumerate(owners):
                        successor[slot] = combo[position]
                    yield token, tuple(successor)

    def states(self, parents: Parents) -> Set[State]:
        decode = self.decode
        return {decode(encoded) for encoded in parents}

    def trace(
        self, parents: Parents, encoded: Tuple[int, ...]
    ) -> Tuple[Action, ...]:
        actions = self.encoder.actions.values
        return tuple(
            actions[token] for token in _reconstruct(parents, encoded)
        )

    def emit_totals(self, tracer: "Tracer") -> None:
        """Counters/gauges summarizing the interning and memo caches."""
        if not tracer.enabled:
            return
        tracer.count("explore.slices_interned", self.encoder.slices_interned())
        tracer.count("explore.actions_interned", len(self.encoder.actions))
        if self.memo_queries:
            tracer.gauge(
                "explore.memo_hit_rate", self.memo_hits / self.memo_queries
            )
            tracer.count("explore.memo_queries", self.memo_queries)
            tracer.count("explore.memo_hits", self.memo_hits)

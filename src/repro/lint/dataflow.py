"""Interprocedural abstract interpretation over protocol logic source.

This is the shared engine behind the deep source rules (REP301-REP304).
It abstractly executes the methods of a station's logic classes -- plus
any module-level helper functions they call -- over a small value
lattice:

* ``Interval`` -- integer ranges with +/-inf endpoints (widening keeps
  loops and the core-field fixpoint terminating),
* ``StrSet`` -- finite string sets (``None`` means "any string"),
* ``TupleVal`` / ``SeqVal`` / ``MapVal`` -- containers with known /
  unknown shape,
* ``Record`` -- frozen-dataclass cores and ``Packet`` values,
* ``MessageVal`` -- the opaque message token; reading ``.ident`` or
  ``.label`` yields a *tainted* value (the §5.3.1 payload channel),
  while ``.size`` stays untainted (the sanctioned §9 content channel).

Every value carries a taint set.  Taints are tuples: ``('msg', file,
line, attr)`` marks message-payload provenance (REP301) and ``('core',
field)`` marks pre-crash core provenance (the REP303 escape analysis
seeds ``on_crash`` with these).

Key design points:

* **Live-instance introspection.**  ``self.<attr>`` reads evaluate
  against the actual logic object, so construction-time configuration
  (``self.modulus``, ``self.nonvolatile``) becomes concrete and
  branches on it are pruned exactly.
* **Input clamping.**  The ``packet`` parameter of ``on_packet`` /
  ``after_send`` is clamped to the *declared* header spaces of the two
  stations, which turns the bounded-header check (REP302) into an
  inductive-invariant argument: assuming peers only emit declared
  headers, does this logic only emit declared headers?
* **Core-field fixpoint.**  Core field values are seeded from the
  concrete ``initial_core()`` and iterated through every protocol
  method until stable (widening after a few rounds), then a final
  recording pass captures ``Packet(...)`` construction sites and
  tainted branch decisions at the stable abstraction.
"""

from __future__ import annotations

import ast
import dataclasses
import inspect
import math
import sys
from dataclasses import dataclass, field as dc_field
from typing import Any, Dict, FrozenSet, List, Optional, Tuple

from ..alphabets import Message, Packet
from .source import MESSAGE_ATTRS, SourceAudit, per_station

NEG_INF = float("-inf")
POS_INF = float("inf")

Taint = FrozenSet[Tuple[Any, ...]]
NO_TAINT: Taint = frozenset()


# ----------------------------------------------------------------------
# Abstract values
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Value:
    taint: Taint = NO_TAINT

    def with_taint(self, taint: Taint) -> "Value":
        if not taint or taint <= self.taint:
            return self
        return dataclasses.replace(self, taint=self.taint | taint)


@dataclass(frozen=True)
class Top(Value):
    """Unknown value."""


@dataclass(frozen=True)
class Bottom(Value):
    """No value (empty-sequence element, unreachable)."""


@dataclass(frozen=True)
class NoneVal(Value):
    pass


@dataclass(frozen=True)
class Interval(Value):
    lo: float = NEG_INF
    hi: float = POS_INF


@dataclass(frozen=True)
class StrSet(Value):
    #: ``None`` means "any string".
    values: Optional[FrozenSet[str]] = None


@dataclass(frozen=True)
class TupleVal(Value):
    items: Tuple[Value, ...] = ()


@dataclass(frozen=True)
class SeqVal(Value):
    """A sequence of unknown length whose elements join to ``elem``."""

    elem: Value = dc_field(default_factory=Bottom)


@dataclass(frozen=True)
class MapVal(Value):
    key: Value = dc_field(default_factory=Bottom)
    val: Value = dc_field(default_factory=Bottom)


@dataclass(frozen=True)
class Record(Value):
    """A frozen-dataclass-like value (cores, ``Packet``)."""

    tag: str = ""
    fields: Tuple[Tuple[str, Value], ...] = ()

    def get(self, name: str) -> Optional[Value]:
        for key, value in self.fields:
            if key == name:
                return value
        return None

    def set(self, name: str, value: Value) -> "Record":
        fields = tuple(
            (key, value if key == name else old)
            for key, old in self.fields
        )
        if all(key != name for key, _ in self.fields):
            fields = fields + ((name, value),)
        return dataclasses.replace(self, fields=fields)


@dataclass(frozen=True)
class MessageVal(Value):
    """The opaque message token."""


@dataclass(frozen=True)
class SelfVal(Value):
    """The logic instance; attribute reads introspect the live object."""


@dataclass(frozen=True)
class FuncVal(Value):
    """A callable: ('method', name) | ('func', FuncInfo) |
    ('class', cls) | ('module', mod) | ('builtin', name) |
    ('vmethod', name, base) | ('opaque',)."""

    ref: Any = ("opaque",)


TOP = Top()
BOTTOM = Bottom()
BOOL = Interval(lo=0, hi=1)


def taint_of(value: Value) -> Taint:
    """The value's own taint plus everything reachable inside it."""
    taint = value.taint
    if isinstance(value, TupleVal):
        for item in value.items:
            taint = taint | taint_of(item)
    elif isinstance(value, SeqVal):
        taint = taint | taint_of(value.elem)
    elif isinstance(value, MapVal):
        taint = taint | taint_of(value.key) | taint_of(value.val)
    elif isinstance(value, Record):
        for _, item in value.fields:
            taint = taint | taint_of(item)
    return taint


# ----------------------------------------------------------------------
# Join / widen
# ----------------------------------------------------------------------


def join(a: Value, b: Value) -> Value:
    if isinstance(a, Bottom):
        return b.with_taint(a.taint)
    if isinstance(b, Bottom):
        return a.with_taint(b.taint)
    taint = a.taint | b.taint
    if isinstance(a, Interval) and isinstance(b, Interval):
        return Interval(taint, min(a.lo, b.lo), max(a.hi, b.hi))
    if isinstance(a, StrSet) and isinstance(b, StrSet):
        if a.values is None or b.values is None:
            return StrSet(taint, None)
        return StrSet(taint, a.values | b.values)
    if isinstance(a, TupleVal) and isinstance(b, TupleVal):
        if len(a.items) == len(b.items):
            return TupleVal(
                taint,
                tuple(join(x, y) for x, y in zip(a.items, b.items)),
            )
        return SeqVal(taint, _join_all(a.items + b.items))
    if isinstance(a, SeqVal) or isinstance(b, SeqVal):
        ea = _elem_or_none(a)
        eb = _elem_or_none(b)
        if ea is not None and eb is not None:
            return SeqVal(taint, join(ea, eb))
        return Top(taint)
    if isinstance(a, MapVal) and isinstance(b, MapVal):
        return MapVal(taint, join(a.key, b.key), join(a.val, b.val))
    if isinstance(a, Record) and isinstance(b, Record) and a.tag == b.tag:
        keys = [k for k, _ in a.fields]
        for k, _ in b.fields:
            if k not in keys:
                keys.append(k)
        return Record(
            taint,
            a.tag,
            tuple(
                (k, join(a.get(k) or BOTTOM, b.get(k) or BOTTOM))
                for k in keys
            ),
        )
    if isinstance(a, NoneVal) and isinstance(b, NoneVal):
        return NoneVal(taint)
    if isinstance(a, MessageVal) and isinstance(b, MessageVal):
        return MessageVal(taint)
    if isinstance(a, SelfVal) and isinstance(b, SelfVal):
        return SelfVal(taint)
    if type(a) is type(b) and a == b:
        return a.with_taint(b.taint)
    return Top(taint)


def _elem_or_none(value: Value) -> Optional[Value]:
    if isinstance(value, SeqVal):
        return value.elem
    if isinstance(value, TupleVal):
        return _join_all(value.items)
    return None


def _join_all(values) -> Value:
    out: Value = BOTTOM
    for value in values:
        out = join(out, value)
    return out


def widen(old: Value, new: Value) -> Value:
    """Accelerate ``join(old, new)`` so chains terminate."""
    joined = join(old, new)
    return _widen_against(old, joined)


def _widen_against(old: Value, joined: Value) -> Value:
    if isinstance(joined, Interval):
        lo, hi = joined.lo, joined.hi
        if isinstance(old, Interval):
            if lo < old.lo:
                lo = NEG_INF
            if hi > old.hi:
                hi = POS_INF
        else:
            lo, hi = NEG_INF, POS_INF
        return Interval(joined.taint, lo, hi)
    if isinstance(joined, TupleVal) and isinstance(old, TupleVal):
        if len(joined.items) == len(old.items):
            return TupleVal(
                joined.taint,
                tuple(
                    _widen_against(o, j)
                    for o, j in zip(old.items, joined.items)
                ),
            )
    if isinstance(joined, SeqVal):
        old_elem = old.elem if isinstance(old, SeqVal) else BOTTOM
        return SeqVal(joined.taint, _widen_against(old_elem, joined.elem))
    if isinstance(joined, MapVal):
        old_k = old.key if isinstance(old, MapVal) else BOTTOM
        old_v = old.val if isinstance(old, MapVal) else BOTTOM
        return MapVal(
            joined.taint,
            _widen_against(old_k, joined.key),
            _widen_against(old_v, joined.val),
        )
    if (
        isinstance(joined, Record)
        and isinstance(old, Record)
        and joined.tag == old.tag
    ):
        return Record(
            joined.taint,
            joined.tag,
            tuple(
                (k, _widen_against(old.get(k) or BOTTOM, v))
                for k, v in joined.fields
            ),
        )
    return joined


def clamp_depth(value: Value, depth: int = 6) -> Value:
    """Replace structure nested deeper than ``depth`` with Top."""
    if depth <= 0:
        return Top(taint_of(value))
    if isinstance(value, TupleVal):
        return TupleVal(
            value.taint,
            tuple(clamp_depth(v, depth - 1) for v in value.items),
        )
    if isinstance(value, SeqVal):
        return SeqVal(value.taint, clamp_depth(value.elem, depth - 1))
    if isinstance(value, MapVal):
        return MapVal(
            value.taint,
            clamp_depth(value.key, depth - 1),
            clamp_depth(value.val, depth - 1),
        )
    if isinstance(value, Record):
        return Record(
            value.taint,
            value.tag,
            tuple(
                (k, clamp_depth(v, depth - 1)) for k, v in value.fields
            ),
        )
    return value


# ----------------------------------------------------------------------
# Concrete -> abstract
# ----------------------------------------------------------------------


def value_of_concrete(obj: Any, depth: int = 0) -> Value:
    if depth > 6:
        return TOP
    if obj is None:
        return NoneVal()
    if isinstance(obj, bool):
        return Interval(NO_TAINT, int(obj), int(obj))
    if isinstance(obj, (int, float)):
        return Interval(NO_TAINT, obj, obj)
    if isinstance(obj, str):
        return StrSet(NO_TAINT, frozenset([obj]))
    if isinstance(obj, Message):
        return MessageVal()
    if isinstance(obj, (tuple, list)):
        if len(obj) <= 8:
            return TupleVal(
                NO_TAINT,
                tuple(value_of_concrete(o, depth + 1) for o in obj),
            )
        return SeqVal(
            NO_TAINT,
            _join_all(value_of_concrete(o, depth + 1) for o in obj),
        )
    if isinstance(obj, (set, frozenset)):
        return SeqVal(
            NO_TAINT,
            _join_all(value_of_concrete(o, depth + 1) for o in obj),
        )
    if isinstance(obj, dict):
        return MapVal(
            NO_TAINT,
            _join_all(value_of_concrete(k, depth + 1) for k in obj),
            _join_all(
                value_of_concrete(v, depth + 1) for v in obj.values()
            ),
        )
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return Record(
            NO_TAINT,
            type(obj).__name__,
            tuple(
                (
                    f.name,
                    value_of_concrete(getattr(obj, f.name), depth + 1),
                )
                for f in dataclasses.fields(obj)
            ),
        )
    return TOP


def abstract_header_space(space) -> Value:
    """Join of the concrete headers in a declared header space."""
    if not space:
        return BOTTOM
    return _join_all(value_of_concrete(h) for h in space)


# ----------------------------------------------------------------------
# Program model
# ----------------------------------------------------------------------


@dataclass
class FuncInfo:
    """One analyzable function: a method or a module-level helper."""

    node: ast.FunctionDef
    file: str
    offset: int  # add to node linenos for absolute file lines
    module: str

    def line(self, node: ast.AST) -> int:
        return self.offset + getattr(node, "lineno", 1)


_MODULE_CACHE: Dict[str, Dict[str, FuncInfo]] = {}


def _module_functions(file: str, module: str) -> Dict[str, FuncInfo]:
    if file in _MODULE_CACHE:
        return _MODULE_CACHE[file]
    funcs: Dict[str, FuncInfo] = {}
    try:
        with open(file, "r", encoding="utf-8") as handle:
            tree = ast.parse(handle.read())
    except (OSError, SyntaxError):
        tree = ast.Module(body=[], type_ignores=[])
    for statement in tree.body:
        if isinstance(statement, ast.FunctionDef):
            funcs[statement.name] = FuncInfo(statement, file, 0, module)
    _MODULE_CACHE[file] = funcs
    return funcs


class ProgramModel:
    """Everything the analyzer can resolve for one station's logic."""

    def __init__(self, audit: SourceAudit):
        self.audit = audit
        self.logic = audit.logic
        self.methods: Dict[str, FuncInfo] = {}
        self.helpers: Dict[Tuple[str, str], FuncInfo] = {}
        for source in audit.classes:  # MRO order: first override wins
            module = source.cls.__module__
            for statement in source.tree.body:
                if not isinstance(statement, ast.ClassDef):
                    continue
                for item in statement.body:
                    if (
                        isinstance(item, ast.FunctionDef)
                        and item.name not in self.methods
                    ):
                        self.methods[item.name] = FuncInfo(
                            item, source.file, source.line - 1, module
                        )
            for name, info in _module_functions(
                source.file, module
            ).items():
                self.helpers.setdefault((module, name), info)

    def resolve_global(self, module: str, name: str) -> Any:
        mod = sys.modules.get(module)
        if mod is None:
            return _MISSING
        return getattr(mod, name, _MISSING)

    def helper(self, module: str, name: str) -> Optional[FuncInfo]:
        return self.helpers.get((module, name))


class _Missing:
    pass


_MISSING = _Missing()


# ----------------------------------------------------------------------
# Analysis results
# ----------------------------------------------------------------------


@dataclass
class Site:
    """One observation made during the final recording pass."""

    kind: str  # "header" (Packet construction) or "branch"
    file: str
    line: int
    value: Value
    method: str = ""

    @property
    def msg_taints(self) -> List[Tuple[Any, ...]]:
        return sorted(
            t for t in taint_of(self.value) if t and t[0] == "msg"
        )


@dataclass
class AnalysisResult:
    """Stable core abstraction + recorded sites for one station."""

    audit: SourceAudit
    core: Value
    header_sites: List[Site]
    branch_sites: List[Site]
    methods: List[str]


#: Protocol methods iterated for the core-field fixpoint, with the
#: kind of their third parameter (after ``self`` and ``core``).
PROTOCOL_METHODS: Dict[str, Optional[str]] = {
    "on_wake": None,
    "on_fail": None,
    "on_crash": None,
    "on_send_msg": "message",
    "on_packet": "packet",
    "enabled_sends": None,
    "after_send": "packet",
    "enabled_deliveries": None,
    "after_delivery": "message",
}

_FIXPOINT_ROUNDS = 14
_WIDEN_AFTER = 8
_LOOP_ROUNDS = 10
_LOOP_WIDEN_AFTER = 6
_CALL_DEPTH = 10


class Frame:
    """Per-call collection of returned and yielded values."""

    def __init__(self) -> None:
        self.returns: List[Value] = []
        self.yields: List[Value] = []

    def result(self) -> Value:
        if self.yields:
            return SeqVal(NO_TAINT, _join_all(self.yields))
        if self.returns:
            return _join_all(self.returns)
        return NoneVal()


class Analyzer:
    """Abstractly interprets one station's methods."""

    def __init__(self, model: ProgramModel, packet_header: Value = TOP):
        self.model = model
        self.packet_header = packet_header
        self.recording = False
        self.header_sites: List[Site] = []
        self.branch_sites: List[Site] = []
        self._stack: List[FuncInfo] = []

    # -- entry points ---------------------------------------------------

    def packet_value(self) -> Value:
        return Record(
            NO_TAINT,
            "Packet",
            (
                ("header", self.packet_header),
                ("body", SeqVal(NO_TAINT, MessageVal())),
                ("uid", NoneVal()),
            ),
        )

    def run_method(
        self, name: str, core: Value, extra: Optional[Value] = None
    ) -> Frame:
        """Interpret one protocol method with ``core`` bound."""
        info = self.model.methods[name]
        kind = PROTOCOL_METHODS.get(name)
        params = [arg.arg for arg in info.node.args.args]
        env: Dict[str, Value] = {}
        values: List[Value] = [SelfVal(), core]
        if len(params) > 2:
            if extra is not None:
                values.append(extra)
            elif kind == "packet":
                values.append(self.packet_value())
            elif kind == "message":
                values.append(MessageVal())
            else:
                values.append(TOP)
        for param, value in zip(params, values):
            env[param] = value
        for param in params[len(values):]:
            env[param] = TOP
        frame = Frame()
        self._stack.append(info)
        try:
            self.exec_block(info.node.body, env, frame, info)
        finally:
            self._stack.pop()
        return frame

    # -- statements -----------------------------------------------------

    def exec_block(self, stmts, env, frame, info):
        for statement in stmts:
            env = self.exec_stmt(statement, env, frame, info)
            if env is None:
                return None
        return env

    def exec_stmt(self, node, env, frame, info):
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            if isinstance(node, ast.AugAssign):
                value = self._binop(
                    node.op,
                    self.eval(node.target, env, frame, info),
                    self.eval(node.value, env, frame, info),
                )
                targets = [node.target]
            else:
                if node.value is None:
                    return env
                value = self.eval(node.value, env, frame, info)
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
            value = clamp_depth(value)
            for target in targets:
                env = self.assign(target, value, env)
            return env
        if isinstance(node, ast.If):
            return self._exec_branch(
                node.test, node.body, node.orelse, env, frame, info
            )
        if isinstance(node, ast.Return):
            value = (
                self.eval(node.value, env, frame, info)
                if node.value is not None
                else NoneVal()
            )
            frame.returns.append(clamp_depth(value))
            return None
        if isinstance(node, ast.Expr):
            self.eval(node.value, env, frame, info)
            return env
        if isinstance(node, (ast.While, ast.For)):
            return self._exec_loop(node, env, frame, info)
        if isinstance(node, ast.Raise):
            return None
        if isinstance(node, (ast.Break, ast.Continue)):
            return None
        if isinstance(node, ast.Try):
            out = self.exec_block(node.body, dict(env), frame, info)
            for handler in node.handlers:
                alt = self.exec_block(handler.body, dict(env), frame, info)
                out = _join_env(out, alt)
            if node.finalbody:
                base = out if out is not None else env
                out = self.exec_block(
                    node.finalbody, dict(base), frame, info
                )
            return out
        if isinstance(node, ast.With):
            return self.exec_block(node.body, env, frame, info)
        if isinstance(node, ast.Assert):
            self._note_branch(node.test, env, frame, info)
            return self.refine(env, node.test, True, frame, info)
        return env

    def _exec_branch(self, test, body, orelse, env, frame, info):
        condition = self.eval(test, env, frame, info)
        self._note_branch_value(test, condition, info)
        truthy = truth(condition)
        out = None
        if truthy is not False:
            env_true = self.refine(dict(env), test, True, frame, info)
            out = _join_env(
                out, self.exec_block(body, env_true, frame, info)
            )
        if truthy is not True:
            env_false = self.refine(dict(env), test, False, frame, info)
            out = _join_env(
                out, self.exec_block(orelse, env_false, frame, info)
            )
        return out

    def _exec_loop(self, node, env, frame, info):
        is_for = isinstance(node, ast.For)
        if is_for:
            iterable = self.eval(node.iter, env, frame, info)
            elem = iter_elem(iterable)
        loop_env = dict(env)
        for round_no in range(_LOOP_ROUNDS):
            body_env = dict(loop_env)
            if is_for:
                body_env = self.assign(node.target, elem, body_env)
            else:
                condition = self.eval(node.test, body_env, frame, info)
                self._note_branch_value(node.test, condition, info)
                if truth(condition) is False:
                    break
                body_env = self.refine(
                    body_env, node.test, True, frame, info
                )
            after = self.exec_block(node.body, body_env, frame, info)
            if after is None:
                break
            merge = widen if round_no >= _LOOP_WIDEN_AFTER else None
            new_env = _merge_envs(loop_env, after, merge)
            if new_env == loop_env:
                loop_env = new_env
                break
            loop_env = new_env
        if node.orelse:
            out = self.exec_block(node.orelse, loop_env, frame, info)
            if out is not None:
                loop_env = out
        return loop_env

    def assign(self, target, value, env):
        if isinstance(target, ast.Name):
            env[target.id] = value
            return env
        if isinstance(target, (ast.Tuple, ast.List)):
            parts = self._unpack(value, len(target.elts))
            for sub, part in zip(target.elts, parts):
                if isinstance(sub, ast.Starred):
                    env = self.assign(
                        sub.value, SeqVal(NO_TAINT, part), env
                    )
                else:
                    env = self.assign(sub, part, env)
            return env
        if isinstance(target, ast.Subscript) and isinstance(
            target.value, ast.Name
        ):
            base = env.get(target.value.id)
            if isinstance(base, MapVal):
                env[target.value.id] = MapVal(
                    base.taint, join(base.key, TOP), join(base.val, value)
                )
            elif isinstance(base, (SeqVal, TupleVal)):
                env[target.value.id] = SeqVal(
                    base.taint,
                    join(_elem_or_none(base) or BOTTOM, value),
                )
            return env
        return env

    def _unpack(self, value: Value, count: int) -> List[Value]:
        if isinstance(value, TupleVal) and len(value.items) == count:
            return [
                item.with_taint(value.taint) for item in value.items
            ]
        elem = _elem_or_none(value)
        if elem is None:
            elem = Top(taint_of(value))
        else:
            elem = elem.with_taint(value.taint)
        return [elem] * count

    # -- expressions ----------------------------------------------------

    def eval(self, node, env, frame, info) -> Value:
        if node is None:
            return NoneVal()
        if isinstance(node, ast.Constant):
            return value_of_concrete(node.value)
        if isinstance(node, ast.Name):
            if node.id in env:
                return env[node.id]
            return self._resolve_name(node.id, info)
        if isinstance(node, ast.Attribute):
            return self._attribute(node, env, frame, info)
        if isinstance(node, ast.BinOp):
            return self._binop(
                node.op,
                self.eval(node.left, env, frame, info),
                self.eval(node.right, env, frame, info),
            )
        if isinstance(node, ast.UnaryOp):
            operand = self.eval(node.operand, env, frame, info)
            if isinstance(node.op, ast.USub) and isinstance(
                operand, Interval
            ):
                return Interval(operand.taint, -operand.hi, -operand.lo)
            if isinstance(node.op, ast.Not):
                return BOOL.with_taint(taint_of(operand))
            return Top(taint_of(operand))
        if isinstance(node, ast.BoolOp):
            values = [
                self.eval(v, env, frame, info) for v in node.values
            ]
            return _join_all(values)
        if isinstance(node, ast.Compare):
            taint = taint_of(self.eval(node.left, env, frame, info))
            for comparator in node.comparators:
                taint |= taint_of(
                    self.eval(comparator, env, frame, info)
                )
            return BOOL.with_taint(taint)
        if isinstance(node, ast.IfExp):
            condition = self.eval(node.test, env, frame, info)
            self._note_branch_value(node.test, condition, info)
            truthy = truth(condition)
            out: Value = BOTTOM
            if truthy is not False:
                env_true = self.refine(
                    dict(env), node.test, True, frame, info
                )
                out = join(
                    out, self.eval(node.body, env_true, frame, info)
                )
            if truthy is not True:
                env_false = self.refine(
                    dict(env), node.test, False, frame, info
                )
                out = join(
                    out, self.eval(node.orelse, env_false, frame, info)
                )
            return out
        if isinstance(node, ast.Call):
            return self._call(node, env, frame, info)
        if isinstance(node, (ast.Tuple, ast.List)):
            items: List[Value] = []
            sequence = False
            for elt in node.elts:
                if isinstance(elt, ast.Starred):
                    sequence = True
                    items.append(
                        _elem_or_none(
                            self.eval(elt.value, env, frame, info)
                        )
                        or TOP
                    )
                else:
                    items.append(self.eval(elt, env, frame, info))
            if sequence:
                return SeqVal(NO_TAINT, _join_all(items))
            return TupleVal(NO_TAINT, tuple(items))
        if isinstance(node, ast.Set):
            return SeqVal(
                NO_TAINT,
                _join_all(
                    self.eval(e, env, frame, info) for e in node.elts
                ),
            )
        if isinstance(node, ast.Dict):
            keys = _join_all(
                self.eval(k, env, frame, info)
                for k in node.keys
                if k is not None
            )
            vals = _join_all(
                self.eval(v, env, frame, info) for v in node.values
            )
            return MapVal(NO_TAINT, keys, vals)
        if isinstance(node, ast.Subscript):
            return self._subscript(node, env, frame, info)
        if isinstance(
            node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)
        ):
            comp_env = self._comp_env(node, env, frame, info)
            return SeqVal(
                NO_TAINT, self.eval(node.elt, comp_env, frame, info)
            )
        if isinstance(node, ast.DictComp):
            comp_env = self._comp_env(node, env, frame, info)
            return MapVal(
                NO_TAINT,
                self.eval(node.key, comp_env, frame, info),
                self.eval(node.value, comp_env, frame, info),
            )
        if isinstance(node, ast.JoinedStr):
            taint = NO_TAINT
            for part in node.values:
                if isinstance(part, ast.FormattedValue):
                    taint |= taint_of(
                        self.eval(part.value, env, frame, info)
                    )
            return StrSet(taint, None)
        if isinstance(node, ast.Yield):
            value = (
                self.eval(node.value, env, frame, info)
                if node.value is not None
                else NoneVal()
            )
            frame.yields.append(clamp_depth(value))
            return NoneVal()
        if isinstance(node, ast.YieldFrom):
            value = self.eval(node.value, env, frame, info)
            frame.yields.append(iter_elem(value))
            return NoneVal()
        if isinstance(node, ast.Starred):
            return self.eval(node.value, env, frame, info)
        if isinstance(node, ast.Lambda):
            return FuncVal(NO_TAINT, ("opaque",))
        return TOP

    def _comp_env(self, node, env, frame, info):
        comp_env = dict(env)
        for generator in node.generators:
            iterable = self.eval(generator.iter, comp_env, frame, info)
            comp_env = self.assign(
                generator.target, iter_elem(iterable), comp_env
            )
            for condition in generator.ifs:
                value = self.eval(condition, comp_env, frame, info)
                self._note_branch_value(condition, value, info)
                comp_env = self.refine(
                    comp_env, condition, True, frame, info
                )
        return comp_env

    def _resolve_name(self, name: str, info: FuncInfo) -> Value:
        obj = self.model.resolve_global(info.module, name)
        if obj is _MISSING:
            import builtins

            if hasattr(builtins, name):
                return FuncVal(NO_TAINT, ("builtin", name))
            return TOP
        if obj is dataclasses.replace:
            return FuncVal(NO_TAINT, ("builtin", "replace"))
        if inspect.isfunction(obj):
            helper = self.model.helper(info.module, name)
            if helper is not None:
                return FuncVal(NO_TAINT, ("func", helper))
            return FuncVal(NO_TAINT, ("opaque",))
        if inspect.isbuiltin(obj):
            return FuncVal(NO_TAINT, ("builtin", obj.__name__))
        if inspect.isclass(obj):
            return FuncVal(NO_TAINT, ("class", obj))
        if inspect.ismodule(obj):
            return FuncVal(NO_TAINT, ("module", obj))
        return value_of_concrete(obj)

    def _attribute(self, node, env, frame, info) -> Value:
        base = self.eval(node.value, env, frame, info)
        attr = node.attr
        if isinstance(base, SelfVal):
            if attr in self.model.methods:
                return FuncVal(base.taint, ("method", attr))
            obj = getattr(self.model.logic, attr, _MISSING)
            if obj is _MISSING:
                return Top(base.taint)
            if callable(obj) and not isinstance(
                obj, (int, float, str, tuple, frozenset)
            ):
                return FuncVal(base.taint, ("opaque",))
            return value_of_concrete(obj).with_taint(base.taint)
        if isinstance(base, MessageVal):
            if attr in MESSAGE_ATTRS:
                mark = frozenset(
                    [("msg", info.file, info.line(node), attr)]
                )
                return Top(base.taint | mark)
            if attr == "size":
                return Interval(base.taint, 0, POS_INF)
            return Top(base.taint)
        if isinstance(base, Record):
            value = base.get(attr)
            if value is not None:
                return value.with_taint(base.taint)
            return Top(taint_of(base))
        if isinstance(base, FuncVal) and base.ref[0] == "module":
            return FuncVal(
                base.taint, ("modattr", base.ref[1].__name__, attr)
            )
        return FuncVal(taint_of(base), ("vmethod", attr, base))

    def _subscript(self, node, env, frame, info) -> Value:
        base = self.eval(node.value, env, frame, info)
        if isinstance(node.slice, ast.Slice):
            if isinstance(base, TupleVal):
                lo = hi = None
                precise = True
                if node.slice.lower is not None:
                    lo = _concrete_int(
                        self.eval(node.slice.lower, env, frame, info)
                    )
                    precise = precise and lo is not None
                if node.slice.upper is not None:
                    hi = _concrete_int(
                        self.eval(node.slice.upper, env, frame, info)
                    )
                    precise = precise and hi is not None
                if precise and node.slice.step is None:
                    return TupleVal(base.taint, base.items[lo:hi])
                return SeqVal(base.taint, _join_all(base.items))
            if isinstance(base, SeqVal):
                return base
            if isinstance(base, StrSet):
                return StrSet(base.taint, None)
            return Top(taint_of(base))
        index = self.eval(node.slice, env, frame, info)
        if isinstance(base, TupleVal):
            i = _concrete_int(index)
            if i is not None and -len(base.items) <= i < len(base.items):
                return base.items[i].with_taint(
                    base.taint | index.taint
                )
            return _join_all(base.items).with_taint(
                base.taint | taint_of(index)
            )
        if isinstance(base, SeqVal):
            return base.elem.with_taint(base.taint | taint_of(index))
        if isinstance(base, MapVal):
            return base.val.with_taint(base.taint | taint_of(index))
        if isinstance(base, StrSet):
            return StrSet(base.taint | taint_of(index), None)
        return Top(taint_of(base) | taint_of(index))

    # -- calls ----------------------------------------------------------

    def _call(self, node, env, frame, info) -> Value:
        args = []
        for arg in node.args:
            value = self.eval(arg, env, frame, info)
            if isinstance(arg, ast.Starred):
                args.append(iter_elem(value))
            else:
                args.append(value)
        kwargs = {
            kw.arg: self.eval(kw.value, env, frame, info)
            for kw in node.keywords
            if kw.arg is not None
        }
        func = self.eval(node.func, env, frame, info)
        if not isinstance(func, FuncVal):
            return Top(taint_of(func))
        return self.apply(func, args, kwargs, node, env, frame, info)

    def apply(self, func, args, kwargs, node, env, frame, info) -> Value:
        kind = func.ref[0]
        if kind == "method":
            target = self.model.methods.get(func.ref[1])
            if target is None:
                return _call_taint(args, kwargs)
            return self._interp_call(
                target, [SelfVal()] + args, kwargs, node, info
            )
        if kind == "func":
            return self._interp_call(
                func.ref[1], args, kwargs, node, info
            )
        if kind == "class":
            return self._construct(
                func.ref[1], args, kwargs, node, info
            )
        if kind == "builtin":
            return self._builtin(func.ref[1], args, kwargs)
        if kind == "modattr":
            return self._modattr(func.ref[1], func.ref[2], args)
        if kind == "vmethod":
            return self._vmethod(func.ref[1], func.ref[2], args, kwargs)
        return _call_taint(args, kwargs)

    def _interp_call(self, target, args, kwargs, node, info) -> Value:
        if target in self._stack or len(self._stack) >= _CALL_DEPTH:
            return _call_taint(args, kwargs)
        params = target.node.args
        names = [a.arg for a in params.args]
        env: Dict[str, Value] = {}
        for name, value in zip(names, args):
            env[name] = value
        defaults = params.defaults
        default_names = names[len(names) - len(defaults):]
        for name, default in zip(default_names, defaults):
            if name not in env:
                env[name] = self.eval(default, {}, Frame(), target)
        for name in names:
            if name in kwargs:
                env[name] = kwargs[name]
            env.setdefault(name, TOP)
        frame = Frame()
        self._stack.append(target)
        try:
            self.exec_block(target.node.body, env, frame, target)
        finally:
            self._stack.pop()
        return frame.result()

    def _construct(self, cls, args, kwargs, node, info) -> Value:
        if cls is Packet:
            header = args[0] if args else kwargs.get("header", TOP)
            body = (
                args[1]
                if len(args) > 1
                else kwargs.get("body", TupleVal())
            )
            if self.recording:
                self.header_sites.append(
                    Site(
                        "header",
                        info.file,
                        info.line(node),
                        header,
                        self._stack[0].node.name if self._stack else "",
                    )
                )
            return Record(
                NO_TAINT,
                "Packet",
                (
                    ("header", header),
                    ("body", body),
                    ("uid", NoneVal()),
                ),
            )
        if cls is Message:
            return MessageVal()
        if dataclasses.is_dataclass(cls):
            fields = []
            spec = dataclasses.fields(cls)
            for index, f in enumerate(spec):
                if index < len(args):
                    fields.append((f.name, args[index]))
                elif f.name in kwargs:
                    fields.append((f.name, kwargs[f.name]))
                elif f.default is not dataclasses.MISSING:
                    fields.append(
                        (f.name, value_of_concrete(f.default))
                    )
                elif f.default_factory is not dataclasses.MISSING:
                    try:
                        fields.append(
                            (
                                f.name,
                                value_of_concrete(f.default_factory()),
                            )
                        )
                    except Exception:
                        fields.append((f.name, TOP))
                else:
                    fields.append((f.name, TOP))
            return Record(NO_TAINT, cls.__name__, tuple(fields))
        return _call_taint(args, kwargs)

    def _builtin(self, name, args, kwargs) -> Value:
        a = args[0] if args else TOP
        if name == "replace":
            if isinstance(a, Record):
                record = a
                for key, value in kwargs.items():
                    record = record.set(key, clamp_depth(value))
                return record
            return _call_taint(args, kwargs)
        if name == "len":
            if isinstance(a, TupleVal):
                return Interval(
                    taint_of(a), len(a.items), len(a.items)
                )
            return Interval(taint_of(a), 0, POS_INF)
        if name == "range":
            if len(args) == 1 and isinstance(a, Interval):
                hi = a.hi - 1
                return SeqVal(NO_TAINT, Interval(a.taint, 0, max(hi, 0)))
            if (
                len(args) >= 2
                and isinstance(args[0], Interval)
                and isinstance(args[1], Interval)
            ):
                lo = args[0].lo
                hi = args[1].hi - 1
                return SeqVal(
                    NO_TAINT,
                    Interval(_taints(args), lo, max(hi, lo)),
                )
            return SeqVal(NO_TAINT, Interval(_taints(args), 0, POS_INF))
        if name in ("min", "max"):
            values = args
            if len(args) == 1:
                elem = _elem_or_none(a)
                values = [elem if elem is not None else TOP]
            intervals = [v for v in values if isinstance(v, Interval)]
            if len(intervals) == len(values) and intervals:
                if name == "min":
                    return Interval(
                        _taints(values),
                        min(v.lo for v in intervals),
                        min(v.hi for v in intervals),
                    )
                return Interval(
                    _taints(values),
                    max(v.lo for v in intervals),
                    max(v.hi for v in intervals),
                )
            return Top(_taints(values))
        if name == "abs":
            if isinstance(a, Interval):
                lo, hi = a.lo, a.hi
                bounds = [abs(lo), abs(hi)]
                new_lo = 0.0 if lo <= 0 <= hi else min(bounds)
                return Interval(a.taint, new_lo, max(bounds))
            return Top(taint_of(a))
        if name in ("int", "round"):
            if isinstance(a, Interval):
                return a
            return Interval(_taints(args), NEG_INF, POS_INF)
        if name == "bool":
            return BOOL.with_taint(_taints(args))
        if name in ("sorted", "list", "tuple", "set", "frozenset", "reversed"):
            if isinstance(a, TupleVal) and name in ("tuple", "list"):
                return a
            elem = _elem_or_none(a)
            if elem is None:
                elem = iter_elem(a)
            return SeqVal(taint_of(a), elem)
        if name == "dict":
            if isinstance(a, MapVal):
                return a
            elem = iter_elem(a)
            parts = self._unpack(elem, 2)
            return MapVal(taint_of(a), parts[0], parts[1])
        if name == "enumerate":
            return SeqVal(
                NO_TAINT,
                TupleVal(
                    taint_of(a),
                    (Interval(NO_TAINT, 0, POS_INF), iter_elem(a)),
                ),
            )
        if name == "zip":
            return SeqVal(
                NO_TAINT,
                TupleVal(NO_TAINT, tuple(iter_elem(v) for v in args)),
            )
        if name == "sum":
            return Interval(_taints(args), NEG_INF, POS_INF)
        if name == "divmod":
            return TupleVal(
                _taints(args),
                (Interval(), Interval(NO_TAINT, 0, POS_INF)),
            )
        if name in ("isinstance", "issubclass", "hasattr", "any", "all"):
            return BOOL.with_taint(_taints(args))
        if name == "print":
            return NoneVal()
        if name == "str":
            return StrSet(_taints(args), None)
        return _call_taint(args, kwargs)

    def _modattr(self, module, attr, args) -> Value:
        a = args[0] if args else TOP
        if module == "math" and attr in ("ceil", "floor"):
            if isinstance(a, Interval):
                lo = a.lo if a.lo in (NEG_INF, POS_INF) else (
                    math.ceil(a.lo) if attr == "ceil" else math.floor(a.lo)
                )
                hi = a.hi if a.hi in (NEG_INF, POS_INF) else (
                    math.ceil(a.hi) if attr == "ceil" else math.floor(a.hi)
                )
                return Interval(a.taint, lo, hi)
            return Interval(taint_of(a), NEG_INF, POS_INF)
        return _call_taint(args, {})

    def _vmethod(self, name, base, args, kwargs) -> Value:
        taint = taint_of(base) | _taints(args)
        if isinstance(base, MapVal):
            if name == "items":
                return SeqVal(
                    base.taint,
                    TupleVal(NO_TAINT, (base.key, base.val)),
                )
            if name == "keys":
                return SeqVal(base.taint, base.key)
            if name == "values":
                return SeqVal(base.taint, base.val)
            if name in ("get", "pop"):
                default = args[1] if len(args) > 1 else NoneVal()
                return join(base.val, default).with_taint(taint)
        if isinstance(base, StrSet):
            if name in ("startswith", "endswith", "isdigit"):
                return BOOL.with_taint(taint)
            return StrSet(taint, None)
        if isinstance(base, Record) and base.tag == "Packet":
            if name in ("strip_uid", "with_uid"):
                return base
        if isinstance(base, (SeqVal, TupleVal)):
            if name in ("index", "count"):
                return Interval(taint, 0, POS_INF)
        return Top(taint)

    # -- operators ------------------------------------------------------

    def _binop(self, op, left: Value, right: Value) -> Value:
        taint = taint_of(left) | taint_of(right)
        if isinstance(op, ast.Mod):
            if isinstance(left, StrSet):
                return StrSet(taint, None)
            if isinstance(left, Interval) and isinstance(right, Interval):
                return _interval_mod(left, right).with_taint(taint)
            return Top(taint)
        if isinstance(op, (ast.Add, ast.BitOr)) and (
            _is_sequence(left) or _is_sequence(right)
        ):
            ea = _elem_or_none(left)
            eb = _elem_or_none(right)
            if ea is not None and eb is not None:
                return SeqVal(left.taint | right.taint, join(ea, eb))
            return Top(taint)
        if isinstance(op, ast.Add) and (
            isinstance(left, StrSet) or isinstance(right, StrSet)
        ):
            return StrSet(taint, None)
        if isinstance(left, Interval) and isinstance(right, Interval):
            return _interval_arith(op, left, right).with_taint(taint)
        if isinstance(op, ast.Mult) and _is_sequence(left):
            return SeqVal(taint, _elem_or_none(left) or TOP)
        return Top(taint)

    # -- refinement -----------------------------------------------------

    def refine(self, env, test, branch, frame, info):
        """Narrow ``env`` assuming ``test`` evaluates to ``branch``."""
        if isinstance(test, ast.UnaryOp) and isinstance(
            test.op, ast.Not
        ):
            return self.refine(env, test.operand, not branch, frame, info)
        if isinstance(test, ast.BoolOp):
            conjunctive = isinstance(test.op, ast.And) == branch
            if conjunctive:
                for value in test.values:
                    env = self.refine(env, value, branch, frame, info)
            return env
        if isinstance(test, ast.Compare) and len(test.ops) == 1:
            return self._refine_compare(env, test, branch, frame, info)
        path = _path_of(test)
        if path is not None:
            current = _get_path(env, path)
            if isinstance(current, Interval):
                if branch:
                    if current.lo >= 0:
                        env = _set_path(
                            env,
                            path,
                            Interval(
                                current.taint,
                                max(current.lo, 1),
                                max(current.hi, 1),
                            ),
                        )
                elif current.lo <= 0 <= current.hi:
                    env = _set_path(
                        env, path, Interval(current.taint, 0, 0)
                    )
        return env

    def _refine_compare(self, env, test, branch, frame, info):
        op = test.ops[0]
        if not branch:
            op = _NEGATED.get(type(op))
            if op is None:
                return env
            op = op()
        sides = [
            (test.left, test.comparators[0]),
            (test.comparators[0], test.left),
        ]
        for flip, (subject, other) in enumerate(sides):
            path, delta = _shifted_path(subject)
            if path is None:
                continue
            current = _get_path(env, path)
            bound = self.eval(other, env, Frame(), info)
            effective = op if not flip else _MIRRORED.get(type(op), lambda: None)()
            if effective is None:
                continue
            refined = _apply_compare(current, effective, bound, delta)
            if refined is not None:
                env = _set_path(env, path, refined)
        return env

    # -- site recording -------------------------------------------------

    def _note_branch(self, test, env, frame, info):
        value = self.eval(test, env, frame, info)
        self._note_branch_value(test, value, info)

    def _note_branch_value(self, test, value, info):
        if not self.recording:
            return
        if any(t and t[0] == "msg" for t in taint_of(value)):
            self.branch_sites.append(
                Site(
                    "branch",
                    info.file,
                    info.line(test),
                    value,
                    self._stack[0].node.name if self._stack else "",
                )
            )


# ----------------------------------------------------------------------
# Operator helpers
# ----------------------------------------------------------------------


def _is_sequence(value: Value) -> bool:
    return isinstance(value, (SeqVal, TupleVal))


def _concrete_int(value: Value) -> Optional[int]:
    if (
        isinstance(value, Interval)
        and value.lo == value.hi
        and value.lo not in (NEG_INF, POS_INF)
    ):
        return int(value.lo)
    return None


def _taints(values) -> Taint:
    out: Taint = NO_TAINT
    for value in values:
        out |= taint_of(value)
    return out


def _call_taint(args, kwargs) -> Value:
    return Top(_taints(list(args) + list(kwargs.values())))


def _interval_mod(left: Interval, right: Interval) -> Value:
    if right.lo == right.hi and right.lo > 0:
        d = right.lo
        if left.lo >= 0 and left.hi < d:
            return Interval(NO_TAINT, left.lo, left.hi)
        return Interval(NO_TAINT, 0, d - 1)
    if right.lo >= 0 and right.hi not in (POS_INF,):
        return Interval(NO_TAINT, 0, max(right.hi - 1, 0))
    return Interval(NO_TAINT, NEG_INF, POS_INF)


def _mul(a: float, b: float) -> float:
    if a == 0 or b == 0:
        return 0.0
    return a * b


def _interval_arith(op, left: Interval, right: Interval) -> Value:
    if isinstance(op, ast.Add):
        return Interval(NO_TAINT, left.lo + right.lo, left.hi + right.hi)
    if isinstance(op, ast.Sub):
        return Interval(NO_TAINT, left.lo - right.hi, left.hi - right.lo)
    if isinstance(op, ast.Mult):
        products = [
            _mul(left.lo, right.lo),
            _mul(left.lo, right.hi),
            _mul(left.hi, right.lo),
            _mul(left.hi, right.hi),
        ]
        return Interval(NO_TAINT, min(products), max(products))
    if isinstance(op, ast.FloorDiv):
        if right.lo == right.hi and right.lo >= 1:
            d = right.lo
            lo = left.lo if left.lo in (NEG_INF, POS_INF) else left.lo // d
            hi = left.hi if left.hi in (NEG_INF, POS_INF) else left.hi // d
            return Interval(NO_TAINT, lo, hi)
        return Interval(NO_TAINT, NEG_INF, POS_INF)
    if isinstance(op, (ast.BitXor, ast.BitAnd, ast.BitOr)):
        if (
            0 <= left.lo <= left.hi <= 64
            and 0 <= right.lo <= right.hi <= 64
        ):
            results = []
            for x in range(int(left.lo), int(left.hi) + 1):
                for y in range(int(right.lo), int(right.hi) + 1):
                    if isinstance(op, ast.BitXor):
                        results.append(x ^ y)
                    elif isinstance(op, ast.BitAnd):
                        results.append(x & y)
                    else:
                        results.append(x | y)
            return Interval(NO_TAINT, min(results), max(results))
        return Interval(NO_TAINT, NEG_INF, POS_INF)
    return Interval(NO_TAINT, NEG_INF, POS_INF)


_NEGATED = {
    ast.Lt: ast.GtE,
    ast.LtE: ast.Gt,
    ast.Gt: ast.LtE,
    ast.GtE: ast.Lt,
    ast.Eq: ast.NotEq,
    ast.NotEq: ast.Eq,
}

_MIRRORED = {
    ast.Lt: ast.Gt,
    ast.LtE: ast.GtE,
    ast.Gt: ast.Lt,
    ast.GtE: ast.LtE,
    ast.Eq: ast.Eq,
    ast.NotEq: ast.NotEq,
}


def _path_of(node) -> Optional[Tuple[str, ...]]:
    if isinstance(node, ast.Name):
        return (node.id,)
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id != "self"
    ):
        return (node.value.id, node.attr)
    return None


def _shifted_path(node):
    """A refinable path plus a constant shift: ``core.x + 1`` -> +1."""
    path = _path_of(node)
    if path is not None:
        return path, 0
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.Add, ast.Sub)
    ):
        sign = 1 if isinstance(node.op, ast.Add) else -1
        if isinstance(node.right, ast.Constant) and isinstance(
            node.right.value, int
        ):
            path = _path_of(node.left)
            if path is not None:
                return path, sign * node.right.value
    return None, 0


def _get_path(env, path) -> Optional[Value]:
    base = env.get(path[0])
    if base is None:
        return None
    if len(path) == 1:
        return base
    if isinstance(base, Record):
        return base.get(path[1])
    return None


def _set_path(env, path, value):
    if len(path) == 1:
        env[path[0]] = value
        return env
    base = env.get(path[0])
    if isinstance(base, Record):
        env[path[0]] = base.set(path[1], value)
    return env


def _apply_compare(current, op, bound, delta) -> Optional[Value]:
    """Refine ``current`` assuming ``current + delta OP bound``."""
    if current is None:
        return None
    if isinstance(current, Interval) and isinstance(bound, Interval):
        lo, hi = current.lo, current.hi
        if isinstance(op, ast.Lt):
            hi = min(hi, bound.hi - 1 - delta)
        elif isinstance(op, ast.LtE):
            hi = min(hi, bound.hi - delta)
        elif isinstance(op, ast.Gt):
            lo = max(lo, bound.lo + 1 - delta)
        elif isinstance(op, ast.GtE):
            lo = max(lo, bound.lo - delta)
        elif isinstance(op, ast.Eq):
            lo = max(lo, bound.lo - delta)
            hi = min(hi, bound.hi - delta)
        elif isinstance(op, ast.NotEq):
            if bound.lo == bound.hi:
                point = bound.lo - delta
                if lo == point:
                    lo = lo + 1
                if hi == point:
                    hi = hi - 1
        if lo > hi:
            return current  # contradiction: keep (path unreachable)
        return Interval(current.taint, lo, hi)
    if (
        isinstance(current, StrSet)
        and isinstance(bound, StrSet)
        and delta == 0
        and current.values is not None
    ):
        if isinstance(op, ast.Eq) and bound.values is not None:
            remaining = current.values & bound.values
            if remaining:
                return StrSet(current.taint, remaining)
        if (
            isinstance(op, ast.NotEq)
            and bound.values is not None
            and len(bound.values) == 1
        ):
            remaining = current.values - bound.values
            if remaining:
                return StrSet(current.taint, remaining)
    return None


def truth(value: Value) -> Optional[bool]:
    if isinstance(value, Interval):
        if value.lo > 0 or value.hi < 0:
            return True
        if value.lo == value.hi == 0:
            return False
        return None
    if isinstance(value, StrSet) and value.values is not None:
        truths = {bool(s) for s in value.values}
        if len(truths) == 1:
            return truths.pop()
        return None
    if isinstance(value, TupleVal):
        return len(value.items) > 0
    if isinstance(value, NoneVal):
        return False
    if isinstance(value, (Record, MessageVal, SelfVal)):
        return True
    return None


def iter_elem(value: Value) -> Value:
    elem = _elem_or_none(value)
    if elem is not None:
        return elem.with_taint(value.taint)
    if isinstance(value, MapVal):
        return value.key.with_taint(value.taint)
    if isinstance(value, StrSet):
        return StrSet(value.taint, None)
    return Top(taint_of(value))


def _join_env(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return _merge_envs(a, b, None, both_only=False)


def _merge_envs(a, b, merge=None, both_only=False):
    out = {}
    for key in set(a) | set(b):
        va = a.get(key)
        vb = b.get(key)
        if va is None:
            out[key] = vb
        elif vb is None:
            out[key] = va
        elif merge is not None:
            out[key] = merge(va, vb)
        else:
            out[key] = join(va, vb)
    return out


# ----------------------------------------------------------------------
# Station analysis (fixpoint + recording pass)
# ----------------------------------------------------------------------


def _station_methods(model: ProgramModel) -> List[str]:
    return [
        name for name in PROTOCOL_METHODS if name in model.methods
    ]


def _records_with_tag(value: Value, tag: str) -> List[Record]:
    found: List[Record] = []
    if isinstance(value, Record):
        if value.tag == tag:
            found.append(value)
        for _, sub in value.fields:
            found.extend(_records_with_tag(sub, tag))
    elif isinstance(value, TupleVal):
        for item in value.items:
            found.extend(_records_with_tag(item, tag))
    elif isinstance(value, SeqVal):
        found.extend(_records_with_tag(value.elem, tag))
    return found


@per_station
def analyze_station(audit: SourceAudit) -> AnalysisResult:
    """Fixpoint + recording pass for one station's logic."""
    model = ProgramModel(audit)
    own = getattr(audit, "own_header_space", None)
    peer = getattr(audit, "peer_header_space", None)
    if own is not None and peer is not None:
        clamp = join(
            abstract_header_space(own), abstract_header_space(peer)
        )
        if isinstance(clamp, Bottom):
            clamp = TOP
    else:
        clamp = TOP
    analyzer = Analyzer(model, packet_header=clamp)
    try:
        concrete = audit.logic.initial_core()
    except Exception:
        concrete = None
    core = value_of_concrete(concrete)
    tag = core.tag if isinstance(core, Record) else ""
    methods = _station_methods(model)
    if isinstance(core, Record):
        for round_no in range(_FIXPOINT_ROUNDS):
            new = core
            for name in methods:
                frame = analyzer.run_method(name, core)
                for value in frame.returns + frame.yields:
                    for record in _records_with_tag(value, tag):
                        new = join(new, record)
            new = clamp_depth(new)
            if round_no >= _WIDEN_AFTER:
                new = widen(core, new)
            if new == core:
                break
            core = new
    analyzer.recording = True
    for name in methods:
        analyzer.run_method(name, core)
    return AnalysisResult(
        audit=audit,
        core=core,
        header_sites=analyzer.header_sites,
        branch_sites=analyzer.branch_sites,
        methods=methods,
    )

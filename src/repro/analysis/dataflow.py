"""Flow-aware name resolution for simlint checkers.

The PR-4 checkers were purely syntactic: they could see that a call is
spelled ``np.cumsum(...)`` but not what flows into it.  The invariants
the vector engine leans on (PR 7/8) are *semantic*: a sort is only a
problem when the sorted thing is a numpy array and the kind is not
stable; a ``.sum()`` is only an overflow hazard when the summed array's
dtype is narrower than int64; a ``stats.l1.hits`` store is only part of
the engine contract when ``stats`` really is a ``SystemStats``.

This module provides the small abstract interpreter those rules need:

* an **abstract-value lattice** — :class:`Const` (literal constants,
  folded through arithmetic), :class:`Array` (a numpy array with a
  tracked dtype and a provenance string), :class:`Instance` (an object
  of a known class, remembering the *field path* from the root object it
  was aliased off, e.g. ``stats.l1``), and :data:`UNKNOWN` (top);
* a **forward binding pass** over each scope in source order with joins
  at ``if``/``try`` merges and conservative demotion of loop-carried
  names, so ``l1 = stats.l1`` aliasing and ``x = x.astype(np.int64)``
  re-binding both resolve;
* a **class table** (:func:`collect_classes`) mapping class names to
  their annotated fields, methods and properties — built per module and
  optionally merged with classes collected from *other* modules, which
  is how the cross-engine stats-contract checker resolves
  ``SystemStats()`` constructed in ``system/vector.py`` against the
  dataclass declared in ``cache/stats.py``;
* an **attribute-write log** (:class:`AttributeWrite`): every
  ``obj.attr = ...`` / ``obj.attr += ...`` with the abstract value of
  ``obj`` at that point — the raw material for the write-set contract.

Checkers query a finished analysis with :meth:`DataflowAnalysis.value_of`
(any expression node in the tree), :meth:`~DataflowAnalysis.binding`
(final module-level value of a name) and the ``attribute_writes`` list.
The pass is deliberately *optimistic about straight lines and
pessimistic about everything else*: a value it cannot prove is
``UNKNOWN``, and checkers are written so ``UNKNOWN`` never fires a
finding that a human would have to argue with.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

__all__ = [
    "UNKNOWN",
    "Array",
    "AttributeWrite",
    "ClassInfo",
    "Const",
    "DataflowAnalysis",
    "Instance",
    "Unknown",
    "Value",
    "assigned_names",
    "collect_classes",
    "dtype_name",
    "join",
]


# ----------------------------------------------------------------------
# The lattice
# ----------------------------------------------------------------------
class Value:
    """Base abstract value; concrete values are the frozen subclasses."""

    __slots__ = ()


@dataclass(frozen=True)
class Unknown(Value):
    """Top: nothing is known.  Compares equal to every other Unknown."""


#: The single shared top element.
UNKNOWN = Unknown()


@dataclass(frozen=True)
class Const(Value):
    """A literal constant (int/float/str/bool/None), folded through
    arithmetic where that cannot raise."""

    value: object


@dataclass(frozen=True)
class Array(Value):
    """A numpy array.  ``dtype`` is the canonical dtype name (``"int64"``,
    ``"bool"``, the platform-dependent ``"int_"``, ...) or ``None`` when
    the array is proven but its dtype is untracked.  ``origin`` is a
    provenance breadcrumb (``"np.zeros"``, ``"astype"``, ``"param"``)
    used only in messages."""

    dtype: Optional[str]
    origin: str = ""


@dataclass(frozen=True)
class Instance(Value):
    """An object of class ``cls``, reached from an object of class
    ``root`` through attribute ``path``.  A freshly constructed object
    has ``root == cls`` and an empty path; ``l1 = stats.l1`` where
    ``stats`` is a ``SystemStats`` yields
    ``Instance(cls="CacheStats", root="SystemStats", path=("l1",))``."""

    cls: str
    root: str
    path: Tuple[str, ...] = ()


def join(a: Value, b: Value) -> Value:
    """Least upper bound of two abstract values (branch merge)."""
    if a == b:
        return a
    if isinstance(a, Array) and isinstance(b, Array) and a.dtype == b.dtype:
        return Array(a.dtype, "join")
    return UNKNOWN


# ----------------------------------------------------------------------
# dtype vocabulary
# ----------------------------------------------------------------------
#: Spelling -> canonical dtype name.  ``int_`` is the platform C long
#: (int32 on 64-bit Windows) — the overflow hazard RPR061 exists for.
_DTYPE_CANON: Dict[str, str] = {
    "bool": "bool",
    "bool_": "bool",
    "int8": "int8",
    "byte": "int8",
    "int16": "int16",
    "short": "int16",
    "int32": "int32",
    "intc": "int32",
    "int64": "int64",
    "longlong": "int64",
    "int": "int_",
    "int_": "int_",
    "long": "int_",
    "intp": "intp",
    "uint8": "uint8",
    "ubyte": "uint8",
    "uint16": "uint16",
    "uint32": "uint32",
    "uint64": "uint64",
    "uintp": "uintp",
    "float": "float64",
    "float_": "float64",
    "float64": "float64",
    "double": "float64",
    "float32": "float32",
    "single": "float32",
    "float16": "float16",
    "half": "float16",
}

#: Integer-family dtypes ordered by width for binop promotion.
_INT_RANK: Dict[str, int] = {
    "bool": 0,
    "int8": 1,
    "uint8": 1,
    "int16": 2,
    "uint16": 2,
    "int32": 3,
    "uint32": 3,
    "int_": 4,  # C long: at most as wide as int64, can be int32
    "intp": 5,
    "uintp": 5,
    "int64": 6,
    "uint64": 6,
}

_FLOAT_DTYPES = frozenset({"float16", "float32", "float64"})


def dtype_name(node: Optional[ast.expr]) -> Optional[str]:
    """Canonical dtype name for a dtype-position expression, else None.

    Recognises ``np.int64`` / ``numpy.float32`` attribute spellings,
    the builtins ``int``/``float``/``bool`` (numpy maps ``int`` to the
    platform C long — exactly the hazard), and string literals.
    """
    if node is None:
        return None
    spelled: Optional[str] = None
    if isinstance(node, ast.Attribute):
        spelled = node.attr
    elif isinstance(node, ast.Name):
        spelled = node.id
    elif isinstance(node, ast.Constant) and isinstance(node.value, str):
        spelled = node.value
    if spelled is None:
        return None
    return _DTYPE_CANON.get(spelled)


def _promote(a: Optional[str], b: Optional[str]) -> Optional[str]:
    """Result dtype of an elementwise binop between dtypes ``a``/``b``."""
    if a is None or b is None:
        return None
    if a == b:
        return a
    if a in _FLOAT_DTYPES or b in _FLOAT_DTYPES:
        return "float64"
    ra, rb = _INT_RANK.get(a), _INT_RANK.get(b)
    if ra is None or rb is None:
        return None
    return a if ra >= rb else b


# ----------------------------------------------------------------------
# Class table
# ----------------------------------------------------------------------
@dataclass
class ClassInfo:
    """Shape of one class: annotated fields, methods, properties, and
    (filled in while its module is analysed) inferred ``self.X`` types."""

    name: str
    fields: Dict[str, Optional[str]] = field(default_factory=dict)
    methods: FrozenSet[str] = frozenset()
    properties: FrozenSet[str] = frozenset()
    is_dataclass: bool = False
    #: ``self.X`` -> joined abstract value, accumulated during analysis.
    attr_types: Dict[str, Value] = field(default_factory=dict)


def _annotation_str(node: Optional[ast.expr]) -> Optional[str]:
    """Dotted string for an annotation node; unwraps Optional[...] and
    string annotations.  None when the shape is not a plain name."""
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            node = ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return None
    if isinstance(node, ast.Subscript):
        head = _annotation_str(node.value)
        if head in {"Optional", "typing.Optional"}:
            return _annotation_str(node.slice)
        if head in {"np.ndarray", "numpy.ndarray", "NDArray", "npt.NDArray"}:
            return head
        return None
    if isinstance(node, (ast.Name, ast.Attribute)):
        parts: List[str] = []
        cur: ast.expr = node
        while isinstance(cur, ast.Attribute):
            parts.append(cur.attr)
            cur = cur.value
        if isinstance(cur, ast.Name):
            parts.append(cur.id)
            return ".".join(reversed(parts))
    return None


_NDARRAY_ANNS = frozenset(
    {"np.ndarray", "numpy.ndarray", "ndarray", "NDArray", "npt.NDArray"}
)


def _class_is_dataclass(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        name = _annotation_str(target)
        if name in {"dataclass", "dataclasses.dataclass"}:
            return True
    return False


def collect_classes(tree: ast.AST) -> Dict[str, ClassInfo]:
    """Class table for every ClassDef in ``tree`` (no dataflow yet)."""
    table: Dict[str, ClassInfo] = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        fields: Dict[str, Optional[str]] = {}
        methods: Set[str] = set()
        properties: Set[str] = set()
        for stmt in node.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                fields[stmt.target.id] = _annotation_str(stmt.annotation)
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                deco_names = {_annotation_str(d) for d in stmt.decorator_list}
                if deco_names & {"property", "cached_property", "functools.cached_property"}:
                    properties.add(stmt.name)
                else:
                    methods.add(stmt.name)
        table.setdefault(
            node.name,
            ClassInfo(
                name=node.name,
                fields=fields,
                methods=frozenset(methods),
                properties=frozenset(properties),
                is_dataclass=_class_is_dataclass(node),
            ),
        )
    return table


# ----------------------------------------------------------------------
# Attribute writes
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class AttributeWrite:
    """One ``obj.attr = value`` / ``obj.attr op= value`` store."""

    node: ast.Attribute
    base: Value
    attr: str
    value: Value
    augmented: bool
    scope: str


def assigned_names(stmts: Iterable[ast.stmt]) -> Set[str]:
    """Every plain name bound anywhere inside ``stmts`` (assignment
    targets, aug-assign targets, loop targets, with-as names)."""
    out: Set[str] = set()
    for stmt in stmts:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, (ast.Store, ast.Del)):
                out.add(node.id)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                out.add(node.name)
    return out


# ----------------------------------------------------------------------
# numpy call vocabulary
# ----------------------------------------------------------------------
_NP_CONSTRUCTORS = frozenset(
    {
        "zeros", "ones", "empty", "full", "array", "asarray",
        "ascontiguousarray", "arange", "linspace", "fromiter", "frombuffer",
    }
)
_NP_LIKE = frozenset({"zeros_like", "ones_like", "empty_like", "full_like"})
_NP_FLOAT_DEFAULT = frozenset({"zeros", "ones", "empty", "linspace"})
_NP_INDEX_RESULTS = frozenset(
    {"argsort", "flatnonzero", "argwhere", "searchsorted", "argmin",
     "argmax", "lexsort", "bincount", "digitize"}
)
_NP_BOOL_RESULTS = frozenset(
    {"logical_not", "logical_and", "logical_or", "logical_xor", "isin",
     "isnan", "isfinite", "isinf", "equal", "not_equal", "less", "greater",
     "less_equal", "greater_equal", "signbit"}
)
_NP_PRESERVE = frozenset(
    {"sort", "copy", "ravel", "unique", "diff", "repeat", "tile", "roll",
     "ascontiguousarray", "flip", "abs", "absolute", "clip", "minimum",
     "maximum", "concatenate", "where"}
)
_METHOD_PRESERVE = frozenset(
    {"copy", "ravel", "reshape", "flatten", "clip", "repeat", "take",
     "round", "view", "squeeze"}
)
#: Reductions whose integer accumulator is the platform C long unless a
#: dtype= is given — the RPR061 surface.
REDUCTIONS = frozenset({"sum", "prod", "cumsum", "cumprod", "nansum",
                        "nanprod", "nancumsum", "nancumprod"})


def _numpy_aliases(tree: ast.AST) -> Set[str]:
    aliases: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "numpy":
                    aliases.add(alias.asname or "numpy")
    return aliases


# ----------------------------------------------------------------------
# The analysis
# ----------------------------------------------------------------------
class DataflowAnalysis:
    """One forward abstract-interpretation pass over a parsed module.

    ``extra_classes`` merges a class table collected from *other*
    modules (locally defined classes win); the cross-file stats-contract
    checker uses this to resolve constructors of imported dataclasses.
    The instance is immutable after construction — checkers only query.
    """

    def __init__(
        self,
        tree: ast.Module,
        extra_classes: Optional[Mapping[str, ClassInfo]] = None,
    ) -> None:
        self.tree = tree
        self.classes: Dict[str, ClassInfo] = dict(extra_classes or {})
        self.classes.update(collect_classes(tree))
        self.numpy_aliases: FrozenSet[str] = frozenset(_numpy_aliases(tree))
        self.attribute_writes: List[AttributeWrite] = []
        #: class name -> first ``Cls()`` constructor call seen (anchor node).
        self.instantiations: Dict[str, ast.Call] = {}
        self._name_values: Dict[int, Value] = {}
        self._func_returns: Dict[str, Value] = {}
        self._module_env: Dict[str, Value] = {}
        self._collect_function_returns()
        self._exec_block(tree.body, self._module_env, scope="<module>", self_class=None)

    # -- public queries -------------------------------------------------
    def binding(self, name: str) -> Value:
        """Final module-level abstract value bound to ``name``."""
        return self._module_env.get(name, UNKNOWN)

    def value_of(self, node: ast.expr) -> Value:
        """Abstract value of any expression node in the analysed tree."""
        if isinstance(node, ast.Name):
            return self._name_values.get(id(node), UNKNOWN)
        if isinstance(node, ast.Constant):
            return Const(node.value)
        if isinstance(node, ast.Attribute):
            return self._attr_value(self.value_of(node.value), node.attr)
        if isinstance(node, ast.Call):
            return self._call_value(node)
        if isinstance(node, ast.BinOp):
            return self._binop_value(
                self.value_of(node.left), node.op, self.value_of(node.right)
            )
        if isinstance(node, ast.UnaryOp):
            operand = self.value_of(node.operand)
            if isinstance(node.op, ast.Not):
                if isinstance(operand, Const):
                    return Const(not operand.value)
                if isinstance(operand, Array):
                    return Array("bool", "not")
                return UNKNOWN
            if isinstance(operand, Array):
                return operand
            if isinstance(operand, Const) and isinstance(node.op, ast.USub):
                if isinstance(operand.value, (int, float)) and not isinstance(
                    operand.value, bool
                ):
                    return Const(-operand.value)
            return UNKNOWN
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            if any(isinstance(self.value_of(o), Array) for o in operands):
                return Array("bool", "compare")
            return UNKNOWN
        if isinstance(node, ast.Subscript):
            base = self.value_of(node.value)
            if isinstance(base, Array):
                return Array(base.dtype, "subscript")
            return UNKNOWN
        if isinstance(node, ast.IfExp):
            return join(self.value_of(node.body), self.value_of(node.orelse))
        return UNKNOWN

    def numpy_call_name(self, call: ast.Call) -> Optional[str]:
        """``"cumsum"`` for ``np.cumsum(...)`` through a numpy alias."""
        func = call.func
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id in self.numpy_aliases
        ):
            return func.attr
        return None

    # -- value transfer -------------------------------------------------
    def _attr_value(self, base: Value, attr: str) -> Value:
        if not isinstance(base, Instance):
            return UNKNOWN
        info = self.classes.get(base.cls)
        if info is None:
            return UNKNOWN
        ann = info.fields.get(attr)
        if ann is not None:
            if ann in self.classes:
                return Instance(cls=ann, root=base.root, path=base.path + (attr,))
            if ann in _NDARRAY_ANNS:
                return Array(None, "field")
            return UNKNOWN
        tracked = info.attr_types.get(attr)
        if tracked is not None:
            return tracked
        return UNKNOWN

    def _dtype_kwarg(self, call: ast.Call) -> Optional[str]:
        for kw in call.keywords:
            if kw.arg == "dtype":
                return dtype_name(kw.value)
        return None

    def _call_value(self, node: ast.Call) -> Value:
        func = node.func
        # Constructor of a known class / call of an annotated local function.
        if isinstance(func, ast.Name):
            if func.id in self.classes:
                self.instantiations.setdefault(func.id, node)
                return Instance(cls=func.id, root=func.id, path=())
            ret = self._func_returns.get(func.id)
            if ret is not None:
                return ret
            return UNKNOWN
        if not isinstance(func, ast.Attribute):
            return UNKNOWN
        # np.* calls through a recognised alias.
        np_name = self.numpy_call_name(node)
        if np_name is not None:
            return self._numpy_call_value(node, np_name)
        # astype() is numpy-specific enough to trust even when the
        # receiver is untracked: the result dtype is the argument.
        if func.attr == "astype":
            target = self._dtype_kwarg(node)
            if target is None and node.args:
                target = dtype_name(node.args[0])
            return Array(target, "astype")
        # Method calls: resolve through the receiver's abstract value.
        recv = self.value_of(func.value)
        if isinstance(recv, Array):
            if func.attr in _METHOD_PRESERVE:
                return Array(recv.dtype, func.attr)
            if func.attr in REDUCTIONS:
                explicit = self._dtype_kwarg(node)
                if explicit is not None:
                    return Array(explicit, func.attr)
                return Array(_promote(recv.dtype, "int_") if recv.dtype in _INT_RANK else recv.dtype, func.attr)
            if func.attr in {"argsort", "argmin", "argmax"}:
                return Array("intp", func.attr)
            if func.attr in {"max", "min"}:
                return Array(recv.dtype, func.attr)
        return UNKNOWN

    def _numpy_call_value(self, node: ast.Call, fname: str) -> Value:
        explicit = self._dtype_kwarg(node)
        if fname in _NP_CONSTRUCTORS:
            if explicit is not None:
                return Array(explicit, f"np.{fname}")
            if fname in _NP_FLOAT_DEFAULT:
                return Array("float64", f"np.{fname}")
            if fname == "arange":
                arg_values = [self.value_of(a) for a in node.args]
                if arg_values and all(
                    isinstance(v, Const) and isinstance(v.value, int)
                    for v in arg_values
                ):
                    return Array("int_", "np.arange")
                return Array(None, "np.arange")
            if fname in {"array", "asarray", "ascontiguousarray"} and node.args:
                arg = self.value_of(node.args[0])
                if isinstance(arg, Array):
                    return Array(arg.dtype, f"np.{fname}")
            return Array(None, f"np.{fname}")
        if fname in _NP_LIKE:
            if explicit is not None:
                return Array(explicit, f"np.{fname}")
            if node.args:
                arg = self.value_of(node.args[0])
                if isinstance(arg, Array):
                    return Array(arg.dtype, f"np.{fname}")
            return Array(None, f"np.{fname}")
        if fname in _NP_INDEX_RESULTS:
            return Array("intp", f"np.{fname}")
        if fname in _NP_BOOL_RESULTS:
            return Array("bool", f"np.{fname}")
        if fname in REDUCTIONS:
            if explicit is not None:
                return Array(explicit, f"np.{fname}")
            if node.args:
                arg = self.value_of(node.args[0])
                if isinstance(arg, Array) and arg.dtype in _INT_RANK:
                    return Array(_promote(arg.dtype, "int_"), f"np.{fname}")
                if isinstance(arg, Array):
                    return Array(arg.dtype, f"np.{fname}")
            return Array(None, f"np.{fname}")
        if fname in _NP_PRESERVE:
            dtypes: List[Optional[str]] = []
            for arg in node.args:
                av = self.value_of(arg)
                if isinstance(av, Array):
                    dtypes.append(av.dtype)
                elif isinstance(arg, (ast.List, ast.Tuple)):
                    for elt in arg.elts:
                        ev = self.value_of(elt)
                        if isinstance(ev, Array):
                            dtypes.append(ev.dtype)
            agreed = dtypes[0] if dtypes and all(d == dtypes[0] for d in dtypes) else None
            return Array(agreed, f"np.{fname}")
        canon = _DTYPE_CANON.get(fname)
        if canon is not None:
            # np.int64(x) etc: a zero-dim scalar; behaves like its dtype.
            return Array(canon, "scalar")
        return UNKNOWN

    def _binop_value(self, left: Value, op: ast.operator, right: Value) -> Value:
        if isinstance(left, Const) and isinstance(right, Const):
            return self._fold_const(left, op, right)
        array = left if isinstance(left, Array) else right if isinstance(right, Array) else None
        if array is None:
            return UNKNOWN
        other = right if array is left else left
        if isinstance(op, ast.Div):
            return Array("float64", "binop")
        if isinstance(other, Array):
            return Array(_promote(array.dtype, other.dtype), "binop")
        if isinstance(other, Const) and isinstance(other.value, float):
            return Array("float64", "binop")
        # int scalar / unknown scalar: numpy keeps the array dtype.
        return Array(array.dtype, "binop")

    @staticmethod
    def _fold_const(left: Const, op: ast.operator, right: Const) -> Value:
        lv, rv = left.value, right.value
        if not isinstance(lv, (int, float)) or not isinstance(rv, (int, float)):
            return UNKNOWN
        try:
            if isinstance(op, ast.Add):
                return Const(lv + rv)
            if isinstance(op, ast.Sub):
                return Const(lv - rv)
            if isinstance(op, ast.Mult):
                return Const(lv * rv)
            if isinstance(op, ast.FloorDiv):
                return Const(lv // rv)
            if isinstance(op, ast.Mod):
                return Const(lv % rv)
            if isinstance(op, ast.Div):
                return Const(lv / rv)
            if isinstance(op, ast.Pow):
                return Const(lv**rv)
            if isinstance(lv, int) and isinstance(rv, int):
                if isinstance(op, ast.LShift):
                    return Const(lv << rv)
                if isinstance(op, ast.RShift):
                    return Const(lv >> rv)
                if isinstance(op, ast.BitAnd):
                    return Const(lv & rv)
                if isinstance(op, ast.BitOr):
                    return Const(lv | rv)
                if isinstance(op, ast.BitXor):
                    return Const(lv ^ rv)
        except (ZeroDivisionError, OverflowError, ValueError):
            return UNKNOWN
        return UNKNOWN

    # -- annotations ----------------------------------------------------
    def _ann_value(self, node: Optional[ast.expr]) -> Value:
        ann = _annotation_str(node)
        if ann is None:
            return UNKNOWN
        if ann in self.classes:
            return Instance(cls=ann, root=ann, path=())
        if ann in _NDARRAY_ANNS:
            return Array(None, "param")
        return UNKNOWN

    def _collect_function_returns(self) -> None:
        for stmt in self.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                value = self._ann_value(stmt.returns)
                if not isinstance(value, Unknown):
                    self._func_returns[stmt.name] = value

    # -- the walk -------------------------------------------------------
    def _record_loads(self, node: ast.AST, env: Dict[str, Value]) -> None:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                self._name_values[id(sub)] = env.get(sub.id, UNKNOWN)

    def _exec_block(
        self,
        stmts: Sequence[ast.stmt],
        env: Dict[str, Value],
        scope: str,
        self_class: Optional[str],
    ) -> None:
        for stmt in stmts:
            self._exec_stmt(stmt, env, scope, self_class)

    def _exec_stmt(
        self,
        stmt: ast.stmt,
        env: Dict[str, Value],
        scope: str,
        self_class: Optional[str],
    ) -> None:
        if isinstance(stmt, ast.Assign):
            self._record_loads(stmt, env)
            value = self.value_of(stmt.value)
            for target in stmt.targets:
                self._bind_target(target, value, env, scope, self_class)
        elif isinstance(stmt, ast.AnnAssign):
            self._record_loads(stmt, env)
            if stmt.value is not None:
                value = self.value_of(stmt.value)
                if isinstance(value, Unknown):
                    value = self._ann_value(stmt.annotation)
            else:
                value = self._ann_value(stmt.annotation)
            self._bind_target(stmt.target, value, env, scope, self_class)
        elif isinstance(stmt, ast.AugAssign):
            self._record_loads(stmt, env)
            rhs = self.value_of(stmt.value)
            target = stmt.target
            if isinstance(target, ast.Name):
                old = env.get(target.id, UNKNOWN)
                # Record the pre-state under the *target* node too, so
                # checkers can ask what `x += ...` operated on.
                self._name_values[id(target)] = old
                env[target.id] = self._binop_value(old, stmt.op, rhs)
            elif isinstance(target, ast.Attribute):
                base = self.value_of(target.value)
                self.attribute_writes.append(
                    AttributeWrite(target, base, target.attr, rhs, True, scope)
                )
        elif isinstance(stmt, ast.If):
            self._record_loads(stmt.test, env)
            then_env = dict(env)
            self._exec_block(stmt.body, then_env, scope, self_class)
            else_env = dict(env)
            self._exec_block(stmt.orelse, else_env, scope, self_class)
            merged: Dict[str, Value] = {}
            for key in then_env.keys() | else_env.keys():
                merged[key] = join(
                    then_env.get(key, UNKNOWN), else_env.get(key, UNKNOWN)
                )
            env.clear()
            env.update(merged)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._record_loads(stmt.iter, env)
            carried = assigned_names(stmt.body) | assigned_names([stmt])
            for name in carried:
                env[name] = UNKNOWN
            self._bind_target(stmt.target, UNKNOWN, env, scope, self_class)
            self._exec_block(stmt.body, env, scope, self_class)
            self._exec_block(stmt.orelse, env, scope, self_class)
        elif isinstance(stmt, ast.While):
            carried = assigned_names(stmt.body)
            for name in carried:
                env[name] = UNKNOWN
            self._record_loads(stmt.test, env)
            self._exec_block(stmt.body, env, scope, self_class)
            self._exec_block(stmt.orelse, env, scope, self_class)
        elif isinstance(stmt, ast.Try):
            body_env = dict(env)
            self._exec_block(stmt.body, body_env, scope, self_class)
            branch_envs = [body_env]
            for handler in stmt.handlers:
                handler_env = dict(env)
                if handler.name is not None:
                    handler_env[handler.name] = UNKNOWN
                self._exec_block(handler.body, handler_env, scope, self_class)
                branch_envs.append(handler_env)
            merged = {}
            all_keys: Set[str] = set()
            for branch in branch_envs:
                all_keys |= branch.keys()
            for key in all_keys:
                value = branch_envs[0].get(key, UNKNOWN)
                for branch in branch_envs[1:]:
                    value = join(value, branch.get(key, UNKNOWN))
                merged[key] = value
            env.clear()
            env.update(merged)
            self._exec_block(stmt.orelse, env, scope, self_class)
            self._exec_block(stmt.finalbody, env, scope, self_class)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                self._record_loads(item.context_expr, env)
                if item.optional_vars is not None:
                    self._bind_target(
                        item.optional_vars, UNKNOWN, env, scope, self_class
                    )
            self._exec_block(stmt.body, env, scope, self_class)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for deco in stmt.decorator_list:
                self._record_loads(deco, env)
            for default in [*stmt.args.defaults, *stmt.args.kw_defaults]:
                if default is not None:
                    self._record_loads(default, env)
            fn_env = dict(env)
            args = stmt.args
            all_args = [*args.posonlyargs, *args.args, *args.kwonlyargs]
            for index, arg in enumerate(all_args):
                if (
                    index == 0
                    and arg.arg == "self"
                    and self_class is not None
                    and not any(
                        _annotation_str(d) == "staticmethod"
                        for d in stmt.decorator_list
                    )
                ):
                    fn_env["self"] = Instance(
                        cls=self_class, root=self_class, path=()
                    )
                else:
                    fn_env[arg.arg] = self._ann_value(arg.annotation)
            for vararg in (args.vararg, args.kwarg):
                if vararg is not None:
                    fn_env[vararg.arg] = UNKNOWN
            self._exec_block(
                stmt.body, fn_env, f"{scope}.{stmt.name}", self_class
            )
            env[stmt.name] = UNKNOWN
        elif isinstance(stmt, ast.ClassDef):
            for deco in stmt.decorator_list:
                self._record_loads(deco, env)
            class_env = dict(env)
            for sub in stmt.body:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    self._exec_stmt(
                        sub, class_env, f"{scope}.{stmt.name}", stmt.name
                    )
                else:
                    self._exec_stmt(sub, class_env, f"{scope}.{stmt.name}", None)
            env[stmt.name] = UNKNOWN
        else:
            # Expr / Return / Assert / Raise / Delete / Import / Pass ...
            self._record_loads(stmt, env)

    def _bind_target(
        self,
        target: ast.expr,
        value: Value,
        env: Dict[str, Value],
        scope: str,
        self_class: Optional[str],
    ) -> None:
        if isinstance(target, ast.Name):
            env[target.id] = value
        elif isinstance(target, ast.Attribute):
            base = self.value_of(target.value)
            self.attribute_writes.append(
                AttributeWrite(target, base, target.attr, value, False, scope)
            )
            if (
                self_class is not None
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                info = self.classes.get(self_class)
                if info is not None:
                    existing = info.attr_types.get(target.attr)
                    info.attr_types[target.attr] = (
                        value if existing is None else join(existing, value)
                    )
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._bind_target(elt, UNKNOWN, env, scope, self_class)
        elif isinstance(target, ast.Starred):
            self._bind_target(target.value, UNKNOWN, env, scope, self_class)
        # Subscript targets carry no name binding we track.

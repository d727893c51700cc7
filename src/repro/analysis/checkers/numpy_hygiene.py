"""RPR060-RPR064: dtype- and stability-aware numpy hygiene (sim core).

The vector engine's byte-identity with the scalar reference engine
rests on numpy properties the interpreter will not check: stable sorts
by cache set (RPR060), 64-bit reduction accumulators — the platform C
long is int32 on 64-bit Windows (RPR061), no per-iteration ``astype``
copies or chained boolean-mask indexing (RPR062/RPR063), and no
in-place op that would change an integer array's dtype (RPR064).

The rules read claims from a :class:`DtypeTable`: they fire only on a
*claimed* numpy array (or, for RPR061, when a reduction's dtype cannot
be claimed safe — an untracked accumulator is exactly the hazard).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Set, Tuple

from repro.analysis.core import Checker, ModuleInfo, Violation, dotted_name

# -- dtype and numpy-call vocabulary -------------------------------------
#: Spelling -> canonical dtype name.  ``int_`` is the platform C long
#: (int32 on 64-bit Windows) — the overflow hazard RPR061 exists for.
_DTYPE_CANON: Dict[str, str] = {
    **{name: name for name in (
        "bool", "int8", "int16", "int32", "int64", "intp", "uint8", "uint16",
        "uint32", "uint64", "uintp", "float16", "float32", "float64")},
    "bool_": "bool", "byte": "int8", "short": "int16", "intc": "int32",
    "longlong": "int64", "int": "int_", "int_": "int_", "long": "int_",
    "ubyte": "uint8", "float": "float64", "float_": "float64",
    "double": "float64", "single": "float32", "half": "float16",
}
#: Integer dtypes by width; ``int_`` is at most int64 and can be int32.
_INT_RANK: Dict[str, int] = {
    "bool": 0, "int8": 1, "uint8": 1, "int16": 2, "uint16": 2, "int32": 3,
    "uint32": 3, "int_": 4, "intp": 5, "uintp": 5, "int64": 6, "uint64": 6}
#: Float dtypes by width: the widest integer rank each holds exactly.
_FLOAT_RANK: Dict[str, int] = {"float16": 1, "float32": 2, "float64": 6}
_FLOAT_DTYPES = frozenset(_FLOAT_RANK)
#: Accumulators that cannot wrap at int32 width (intp/uintp are 64-bit
#: on every platform this repo supports).
_SAFE_ACCUM = frozenset({"int64", "uint64", "intp", "uintp"}) | _FLOAT_DTYPES
#: Integer dtypes that provably accumulate at C-long width.
_NARROW_INT = frozenset(_INT_RANK) - _SAFE_ACCUM
_STABLE_KINDS = frozenset({"stable", "mergesort"})
_NDARRAY_ANNS = frozenset(
    {"np.ndarray", "numpy.ndarray", "ndarray", "NDArray", "npt.NDArray"})
_ARRAY_COMPARE = (ast.Eq, ast.NotEq, ast.Lt, ast.LtE, ast.Gt, ast.GtE)

#: numpy functions whose result dtype is fixed unless dtype= is given.
_NP_FIXED: Dict[str, str] = {
    **dict.fromkeys(("zeros", "ones", "empty", "linspace"), "float64"),
    **dict.fromkeys((
        "argsort", "flatnonzero", "argwhere", "searchsorted", "argmin",
        "argmax", "lexsort", "bincount", "digitize"), "intp"),
    **dict.fromkeys((
        "logical_not", "logical_and", "logical_or", "logical_xor", "isin",
        "isnan", "isfinite", "isinf", "equal", "not_equal", "less", "greater",
        "less_equal", "greater_equal", "signbit"), "bool"),
}
#: Constructors of an array of untracked dtype.
_NP_UNTYPED = frozenset({"full", "fromiter", "frombuffer"})
#: Results that take their first argument's dtype.
_NP_COPIES = frozenset({"array", "asarray", "ascontiguousarray", "zeros_like",
                        "ones_like", "empty_like", "full_like"})
#: Results whose dtype is the one all their array arguments share.
_NP_PRESERVE = frozenset({
    "sort", "copy", "ravel", "unique", "diff", "repeat", "tile", "roll",
    "flip", "abs", "absolute", "clip", "minimum", "maximum", "concatenate",
    "where"})
_METHOD_PRESERVE = frozenset({"copy", "ravel", "reshape", "flatten", "clip", "repeat",
                              "take", "round", "squeeze", "max", "min", "view"})
#: Reductions whose integer accumulator is the platform C long unless a
#: dtype= is given — the RPR061 surface.
REDUCTIONS = frozenset({"sum", "prod", "cumsum", "cumprod", "nansum",
                        "nanprod", "nancumsum", "nancumprod"})


def dtype_name(node: Optional[ast.expr]) -> Optional[str]:
    """Canonical dtype of ``np.int64``, ``numpy.float32``, the builtins
    ``int``/``float``/``bool`` (``int`` is the C long) or a string."""
    spelled = (getattr(node, "attr", None) or getattr(node, "id", None)
               or getattr(node, "value", None))
    return _DTYPE_CANON.get(spelled) if isinstance(spelled, str) else None


def _promote(a: Optional[str], b: Optional[str]) -> Optional[str]:
    """Result dtype of an elementwise binop between dtypes ``a``/``b``."""
    if a is None or b is None or a == b:
        return a if a == b else None
    if a in _FLOAT_DTYPES or b in _FLOAT_DTYPES:
        # The wider float, widened until it holds the integer side.
        need = max(_FLOAT_RANK.get(d, _INT_RANK.get(d, 6)) for d in (a, b))
        return next(f for f, rank in _FLOAT_RANK.items() if rank >= need)
    if a not in _INT_RANK or b not in _INT_RANK:
        return None
    if "bool" not in (a, b) and a.startswith("u") != b.startswith("u"):
        # numpy goes a signed width up unless the signed side is surely
        # wider: int_ may be 32-bit, and uintp is 64-bit like int64.
        s, u = (a, b) if b.startswith("u") else (b, a)
        return s if _INT_RANK[s] - (s == "int_") > _INT_RANK[u] + (u == "uintp") else None
    return a if _INT_RANK[a] >= _INT_RANK[b] else b


def _accumulator(dtype: Optional[str]) -> Optional[str]:
    """Default result dtype of a sum/cumsum/prod over ``dtype``: narrow
    integers accumulate at the C long (``uint`` for unsigned ones)."""
    return "int_" if _INT_RANK.get(dtype or "", 9) <= _INT_RANK["int_"] else dtype


def _dtype_keyword(call: ast.Call) -> Tuple[bool, Optional[str]]:
    """(present, canonical name) of a call's ``dtype=`` keyword."""
    value = next((kw.value for kw in call.keywords if kw.arg == "dtype"), None)
    return value is not None, dtype_name(value)


def _is_ndarray_annotation(node: Optional[ast.expr]) -> bool:
    """``np.ndarray``, ``"np.ndarray"``, ``Optional[NDArray[...]]``,
    ``np.ndarray | None``, ..."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            node = ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return False
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        arms = [arm for arm in (node.left, node.right)
                if not (isinstance(arm, ast.Constant) and arm.value is None)]
        return len(arms) == 1 and _is_ndarray_annotation(arms[0])
    if isinstance(node, ast.Subscript):
        if dotted_name(node.value) in {"Optional", "typing.Optional"}:
            return _is_ndarray_annotation(node.slice)
        node = node.value
    return node is not None and dotted_name(node) in _NDARRAY_ANNS


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


# -- the dtype table -----------------------------------------------------
@dataclass(frozen=True)
class Array:
    """A claimed numpy array or scalar: a canonical ``dtype`` (None when
    untracked) and an ``origin`` breadcrumb for messages."""

    dtype: Optional[str]
    origin: str = ""


def _agree(claims: List[Optional[Array]]) -> Optional[Array]:
    """An array if every binding claims one; a dtype if all of them agree."""
    arrays = [c for c in claims if c is not None]
    if not arrays or len(arrays) < len(claims):
        return None
    dtypes = {a.dtype for a in arrays}
    joined = Array(dtypes.pop() if len(dtypes) == 1 else None, "join")
    return arrays[0] if len(set(arrays)) == 1 else joined


#: (value, annotation) of one binding; both None make no claim.
_Binding = Tuple[Optional[ast.expr], Optional[ast.expr]]
_Claims = Tuple[Optional[Array], Optional[Array]]


@dataclass(eq=False)
class _Scope:
    """The bindings of one module, class or function body.  ``owner``
    holds the ``self.X`` bindings of the class a method belongs to."""

    parent: Optional["_Scope"]
    owner: Optional["_Scope"] = None
    is_class: bool = False
    bindings: Dict[str, List[_Binding]] = field(default_factory=dict)
    #: ``x op= y`` kept as the expression ``x op y``, per name.
    inplace: Dict[str, List[_Binding]] = field(default_factory=dict)

    def bind(self, name: str, value: Optional[ast.expr] = None,
             annotation: Optional[ast.expr] = None) -> None:
        self.bindings.setdefault(name, []).append((value, annotation))


class DtypeTable:
    """Which names and ``self`` attributes of a module hold numpy arrays,
    and of which dtype, per scope and regardless of statement order.

    A name's claim is what all its bindings in its scope agree on;
    ``x op= y`` is not a binding.  ``docs/static_analysis.md`` ("The
    dtype table") gives the rules and what stays unproven.
    """

    def __init__(self, tree: ast.Module) -> None:
        self.numpy_aliases: FrozenSet[str] = frozenset(
            alias.asname or "numpy"
            for node in ast.walk(tree) if isinstance(node, ast.Import)
            for alias in node.names if alias.name == "numpy")
        self._array_returns = frozenset(
            stmt.name for stmt in tree.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
            and _is_ndarray_annotation(stmt.returns))
        self._scope_of: Dict[int, _Scope] = {}
        #: (scope, name) -> (claim before its in-place ops, claim for reads)
        self._memo: Dict[Tuple[int, str], _Claims] = {}
        #: Names being resolved -> the claim assumed for them meanwhile.
        self._open: Dict[Tuple[int, str], Optional[Array]] = {}
        self._leans_on: Set[Tuple[int, str]] = set()
        module = _Scope(None)
        for stmt in tree.body:
            self._scan(stmt, module)

    def numpy_call_name(self, call: ast.Call) -> Optional[str]:
        """``"cumsum"`` for ``np.cumsum(...)`` through a numpy alias."""
        func = call.func
        if (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
                and func.value.id in self.numpy_aliases):
            return func.attr
        return None

    def value_of(self, node: ast.expr, inplace_target: bool = False) -> Optional[Array]:
        """A claim for any expression (``inplace_target``: before ``op=``)."""
        if isinstance(node, (ast.Name, ast.Attribute)):
            scope, name = self._owner_of(node)
            while scope is not None and name not in scope.bindings:
                scope = scope.parent
            return self._resolve(scope, name)[0 if inplace_target else 1] if scope else None
        if isinstance(node, ast.Call):
            return self._call_value(node)
        if isinstance(node, ast.BinOp):
            return self._binop_value(node)
        if isinstance(node, ast.UnaryOp) and not isinstance(node.op, ast.Not):
            return self.value_of(node.operand)
        if isinstance(node, ast.Compare) and all(
            isinstance(op, _ARRAY_COMPARE) for op in node.ops
        ) and any(self.value_of(o) is not None for o in [node.left, *node.comparators]):
            return Array("bool", "compare")
        if isinstance(node, ast.Subscript):
            base = self.value_of(node.value)
            return None if base is None else Array(base.dtype, "subscript")
        if isinstance(node, ast.IfExp):
            return _agree([self.value_of(node.body), self.value_of(node.orelse)])
        return None

    def _owner_of(
        self, node: ast.expr, scope: Optional[_Scope] = None
    ) -> Tuple[Optional[_Scope], str]:
        """Where a name or ``self.X`` is bound, and under which key; a
        target being scanned has its names mapped to ``scope`` first."""
        if isinstance(node, ast.Name):
            if scope is not None:
                self._scope_of[id(node)] = scope
            return self._scope_of.get(id(node)), node.id
        if isinstance(node, ast.Attribute):
            if scope is not None:
                self._scan(node.value, scope)
            inner = self._scope_of.get(id(node.value))
            if getattr(node.value, "id", None) == "self" and inner and not inner.is_class:
                return inner.owner, node.attr
        return None, ""

    def _resolve(self, scope: _Scope, name: str) -> _Claims:
        key = (id(scope), name)
        if key in self._memo:
            return self._memo[key]
        if key in self._open:
            self._leans_on.add(key)
            return self._open[key], self._open[key]
        self._open[key] = None
        outer, self._leans_on = self._leans_on, set()
        direct: List[Optional[Array]] = []
        circular: List[_Binding] = []
        for binding in scope.bindings[name]:
            claim = self._claim(binding)
            if key in self._leans_on:
                self._leans_on.discard(key)
                circular.append(binding)
            else:
                direct.append(claim)
        before = after = _agree(direct)
        if before is not None:
            # Assume it; keep it only if the bindings reading it give it back.
            self._open[key] = before
            if not self._gives_back(before, circular):
                before = after = None
            elif not self._gives_back(before, scope.inplace.get(name, [])):
                after = None
        del self._open[key]
        self._leans_on.discard(key)
        if not self._leans_on:  # leaned on no name still being resolved
            self._memo[key] = (before, after)
        self._leans_on |= outer
        return before, after

    def _gives_back(self, claim: Array, bindings: List[_Binding]) -> bool:
        again = [self._claim(binding) for binding in bindings]
        return all(c is not None and c.dtype == claim.dtype for c in again)

    def _claim(self, binding: _Binding) -> Optional[Array]:
        value, annotation = binding
        claim = None if value is None else self.value_of(value)
        if claim is None and _is_ndarray_annotation(annotation):
            claim = Array(None, "param")
        return claim

    def _scan(self, node: ast.AST, scope: _Scope) -> None:
        """Record ``node``'s bindings in ``scope`` and map its names."""
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            self._scan_def(node, scope)
            return
        children: Iterable[ast.AST] = ast.iter_child_nodes(node)
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign, ast.NamedExpr)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            ann = node.annotation if isinstance(node, ast.AnnAssign) else None
            rest: List[ast.AST] = [c for c in (node.value, ann) if c is not None]
            for target in targets:
                owner, name = self._owner_of(target, scope)
                if owner is None:
                    rest.append(target)
                elif isinstance(node, ast.AugAssign):
                    op = ast.BinOp(left=target, op=node.op, right=node.value)
                    owner.inplace.setdefault(name, []).append((op, None))
                else:
                    owner.bind(name, node.value, ann)
                    if owner.is_class and owner.owner is not None:
                        owner.owner.bind(name, node.value, ann)
            children = rest
        elif isinstance(node, (ast.Name, ast.Attribute)) and not isinstance(
            node.ctx, ast.Load
        ):
            owner, name = self._owner_of(node, scope)
            if owner is not None:
                owner.bind(name)  # loop, with, unpacking, del: no claim
            return
        elif isinstance(node, ast.Name):
            self._scope_of[id(node)] = scope
        elif isinstance(node, ast.ExceptHandler) and node.name:
            scope.bind(node.name)
        for child in children:
            self._scan(child, scope)

    def _scan_def(self, node: "ast.FunctionDef | ast.AsyncFunctionDef | ast.ClassDef",
                  scope: _Scope) -> None:
        scope.bind(node.name)
        header: List[ast.AST] = list(node.decorator_list)
        if isinstance(node, ast.ClassDef):
            header += [*node.bases, *node.keywords]
            inner = _Scope(scope, _Scope(None), is_class=True)
        else:
            args = node.args
            header += [*args.defaults, *(d for d in args.kw_defaults if d is not None)]
            inner = _Scope(scope.parent if scope.is_class else scope, scope.owner)
            for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
                inner.bind(arg.arg, None, arg.annotation)
            for star in (args.vararg, args.kwarg):
                if star is not None:
                    inner.bind(star.arg)
        for child in header:
            self._scan(child, scope)
        for stmt in node.body:
            self._scan(stmt, inner)

    def _call_value(self, node: ast.Call) -> Optional[Array]:
        """np.* calls, and methods of a claimed array (or ``astype``)."""
        func = node.func
        if isinstance(func, ast.Name):
            return Array(None, "return") if func.id in self._array_returns else None
        if not isinstance(func, ast.Attribute) or any(
            (kw.arg or "").startswith("return_") for kw in node.keywords
        ):
            return None  # np.unique(..., return_inverse=True) is a tuple
        fname, on_np = func.attr, self.numpy_call_name(node) is not None
        has_dtype, dtype = _dtype_keyword(node)
        if fname == "astype" and not on_np:  # trusted on any receiver
            return Array(dtype_name(node.args[0]) if node.args else dtype, "astype")
        operand = func.value if not on_np else node.args[0] if node.args else None
        first = None if operand is None else self.value_of(operand)
        if not on_np and first is None:
            return None
        if has_dtype or (on_np and fname in _NP_UNTYPED):
            pass
        elif fname in _NP_FIXED:
            dtype = _NP_FIXED[fname]
        elif fname in REDUCTIONS:
            dtype = None if first is None else _accumulator(first.dtype)
        elif fname == "view" and node.args:
            dtype = dtype_name(node.args[0])
        elif fname in (_NP_COPIES if on_np else _METHOD_PRESERVE):
            dtype = None if first is None else first.dtype
        elif on_np and fname == "arange":
            ints = [isinstance(a, ast.Constant) and type(a.value) is int for a in node.args]
            dtype = "int_" if ints and all(ints) else None
        elif on_np and fname in _NP_PRESERVE:
            elts = [e for a in node.args
                    for e in (a.elts if isinstance(a, (ast.List, ast.Tuple)) else [a])]
            dtypes = {c.dtype for c in map(self.value_of, elts) if c is not None}
            dtype = dtypes.pop() if len(dtypes) == 1 else None
        elif on_np and fname in _DTYPE_CANON:  # np.int64(x): a scalar
            return Array(_DTYPE_CANON[fname], "scalar")
        else:
            return None
        return Array(dtype, f"np.{fname}" if on_np else fname)

    def _binop_value(self, node: ast.BinOp) -> Optional[Array]:
        left, right = self.value_of(node.left), self.value_of(node.right)
        if left is not None and right is not None:
            dtype = _promote(left.dtype, right.dtype)
        elif left is not None or right is not None:
            array, other = (left, node.right) if left is not None else (right, node.left)
            assert array is not None
            # Python numbers are weak (NEP 50): a float literal makes an int
            # array float64, an int literal makes a bool array the default
            # int, and any other operand is assumed to keep the dtype.
            literal = other.value if isinstance(other, ast.Constant) else None
            dtype = array.dtype
            if isinstance(literal, float) and dtype and dtype not in _FLOAT_DTYPES:
                dtype = "float64"
            elif type(literal) is int and dtype == "bool":
                dtype = "int_"
        else:
            return None
        if isinstance(node.op, ast.Div) and dtype not in _FLOAT_DTYPES and dtype:
            dtype = "float64"
        return Array(dtype, "binop")


# -- the rules -----------------------------------------------------------
_Finding = Tuple[str, ast.AST, str]


def _root_name(node: ast.expr) -> Optional[str]:
    """Leftmost name of an attribute/subscript/call-receiver chain."""
    while True:
        if isinstance(node, (ast.Attribute, ast.Subscript)):
            node = node.value
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            node = node.func.value
        else:
            return node.id if isinstance(node, ast.Name) else None


def _unstable_sort(table: DtypeTable, node: ast.Call) -> Iterator[_Finding]:
    func = node.func
    if table.numpy_call_name(node) not in {"sort", "argsort"} and not (
        isinstance(func, ast.Attribute) and func.attr in {"sort", "argsort"}
        and table.value_of(func.value) is not None
    ):
        return
    kind_node = next((kw.value for kw in node.keywords if kw.arg == "kind"), None)
    kind = kind_node.value if isinstance(kind_node, ast.Constant) else None
    if kind_node is not None and kind in _STABLE_KINDS:
        return
    detail = (f"kind={kind!r} is not a stable sort" if kind_node is not None
              else "no kind= given, so numpy picks introsort")
    yield ("RPR060", node, f"unstable numpy sort in sim core ({detail}); equal "
           "keys must keep program order for set-partitioned replay — use "
           "kind='stable' (value-only sorts may noqa with a reason)")


def _narrow_reduction(table: DtypeTable, node: ast.Call) -> Iterator[_Finding]:
    np_name, func = table.numpy_call_name(node), node.func
    if np_name in REDUCTIONS and node.args:
        operand, reduction = node.args[0], np_name
    elif (isinstance(func, ast.Attribute) and func.attr in REDUCTIONS
          and table.value_of(func.value) is not None):  # not list.sum() etc.
        operand, reduction = func.value, func.attr
    else:
        return
    explicit = _dtype_keyword(node)[1]
    value = table.value_of(operand)
    if explicit is not None:
        if explicit not in _SAFE_ACCUM:
            yield ("RPR061", node, f"{reduction}() accumulates at explicit dtype "
                   f"{explicit!r}, which can overflow int32-width counts on "
                   "long traces — accumulate at int64")
    elif value is not None and value.dtype in _NARROW_INT:
        yield ("RPR061", node, f"{reduction}() over a {value.dtype} array (origin: "
               f"{value.origin or 'unknown'}) accumulates at the platform C "
               "long — int32 on 64-bit Windows; pass dtype=np.int64")
    elif value is None or value.dtype not in _SAFE_ACCUM:
        yield ("RPR061", node, f"{reduction}() over an array of untracked dtype — "
               "the accumulator may be the platform C long (int32 on 64-bit "
               "Windows); pass dtype=np.int64 to pin it")


def _loop_astype(loop: "ast.For | ast.While") -> Iterator[_Finding]:
    rebound = assigned_names(loop.body)
    if isinstance(loop, ast.For):
        rebound |= assigned_names([loop]) - assigned_names(loop.orelse)
    for node in (n for stmt in loop.body for n in ast.walk(stmt)):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "astype"):
            root = _root_name(node.func.value)
            if root is not None and root not in rebound:
                yield ("RPR062", node, f"astype() of loop-invariant {root!r} "
                       "inside a loop copies the whole array every iteration "
                       "— hoist the conversion above the loop")


def _chained_mask(table: DtypeTable, node: ast.Subscript) -> Iterator[_Finding]:
    inner = node.value
    mask = table.value_of(inner.slice) if isinstance(inner, ast.Subscript) else None
    if mask is None or mask.dtype != "bool":
        return
    if isinstance(node.ctx, (ast.Store, ast.Del)):
        yield ("RPR063", node, "store through chained boolean-mask indexing "
               "writes into a temporary copy and is silently dropped — index "
               "once with a combined mask or np.flatnonzero(mask)")
    else:
        yield ("RPR063", node, "chained boolean-mask indexing materialises the "
               "masked selection before indexing it again — combine the masks "
               "or index np.flatnonzero(mask)")


def _inplace_cast(table: DtypeTable, node: ast.AugAssign) -> Iterator[_Finding]:
    target = table.value_of(node.target, inplace_target=True)
    if target is None or target.dtype not in _INT_RANK:
        return  # float / untracked targets: no forced downcast
    rhs = table.value_of(node.value)
    if isinstance(node.op, ast.Div):
        yield ("RPR064", node, f"in-place /= on a {target.dtype} array requires "
               "a float result — numpy raises a casting error; use x = x / y "
               "or //= if integer division is meant")
    elif (rhs is not None and rhs.dtype in _FLOAT_DTYPES) or (
        isinstance(node.value, ast.Constant) and isinstance(node.value.value, float)
    ):
        yield ("RPR064", node, f"in-place op mixes a {target.dtype} array with a "
               "float operand — numpy cannot cast the result back in place; "
               "widen the array first or compute out of place")


class NumpyHygieneChecker(Checker):
    """dtype-table-backed numpy rules for the simulation core."""

    name = "numpy-hygiene"
    codes = {
        "RPR060": "numpy sort/argsort in sim core without kind='stable' (default "
        "introsort reorders equal keys; set-partitioned replay depends on "
        "stable tie order)",
        "RPR061": "integer sum/cumsum/prod accumulating at the platform C-long "
        "dtype (int32 on 64-bit Windows) — pass dtype=np.int64 or prove the "
        "operand is already 64-bit",
        "RPR062": "loop-invariant astype() inside a loop re-copies the same "
        "array every iteration — hoist it out",
        "RPR063": "chained boolean-mask indexing x[mask][...] materialises the "
        "selection twice (and a store through it is silently dropped) — "
        "combine the masks or use np.flatnonzero",
        "RPR064": "in-place operator would change an integer array's dtype "
        "(numpy raises a casting error) — use an out-of-place op or astype first",
    }
    tags: Optional[FrozenSet[str]] = frozenset({"simcore"})

    def check_module(self, module: ModuleInfo) -> Iterator[Violation]:
        table = DtypeTable(module.tree)
        for node in ast.walk(module.tree):
            found: Iterable[_Finding] = ()
            if isinstance(node, ast.Call):
                found = [*_unstable_sort(table, node), *_narrow_reduction(table, node)]
            elif isinstance(node, (ast.For, ast.While)):
                found = _loop_astype(node)
            elif isinstance(node, ast.Subscript):
                found = _chained_mask(table, node)
            elif isinstance(node, ast.AugAssign):
                found = _inplace_cast(table, node)
            for code, at, message in found:
                yield module.violation(self, code, at, message)


__all__ = ["Array", "DtypeTable", "NumpyHygieneChecker"]

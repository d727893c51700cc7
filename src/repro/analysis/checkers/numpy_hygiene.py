"""RPR060-RPR064: dtype- and stability-aware numpy hygiene (sim core).

The vector engine (PR 7/8) is a pile of numpy array algebra whose
byte-identity contract with the scalar reference engine rests on
properties the interpreter will not check for us:

* **sort stability** — set-partitioned replay sorts references by L1
  set and depends on equal keys keeping their program order.  numpy's
  default introsort makes no such promise (RPR060).
* **accumulator width** — ``sum``/``cumsum``/``prod`` over integer
  arrays accumulate at the platform C long unless told otherwise:
  int32 on 64-bit Windows, where a prefix sum over a long trace
  silently wraps (RPR061).
* **copy discipline** — ``astype`` always copies, and ``x[mask][...]``
  materialises the mask selection before indexing it again; both are
  pure waste inside a hot loop, and a *store* through a chained mask is
  silently dropped (RPR062/RPR063).
* **in-place casting** — ``int_array /= n`` (or ``+= 0.5``) asks numpy
  to change an array's dtype in place, which raises a casting error at
  runtime (RPR064).

All five rules query the module's :class:`~repro.analysis.dataflow.
DataflowAnalysis`: they fire only when the value in question is a
*proven* numpy array (or, for RPR061, when a reduction's dtype cannot
be proven safe — an untracked accumulator is exactly the hazard).
"""

from __future__ import annotations

import ast
from typing import FrozenSet, Iterator, Optional, Set, Tuple

from repro.analysis.core import Checker, ModuleInfo, Violation
from repro.analysis.dataflow import (
    REDUCTIONS,
    Array,
    Const,
    DataflowAnalysis,
    assigned_names,
    dtype_name,
)

#: Accumulator dtypes that cannot wrap at int32 width (intp/uintp are
#: pointer-sized: 64-bit on every platform this repo supports).
_SAFE_ACCUM = frozenset({"int64", "uint64", "intp", "uintp",
                         "float16", "float32", "float64"})

#: Integer-family dtypes that provably accumulate at C-long width.
_NARROW_INT = frozenset({"bool", "int8", "int16", "int32",
                         "uint8", "uint16", "uint32", "int_"})

_STABLE_KINDS = frozenset({"stable", "mergesort"})

_FLOAT_DTYPES = frozenset({"float16", "float32", "float64"})


def _root_name(node: ast.expr) -> Optional[str]:
    """Leftmost name of an attribute/subscript/call-receiver chain."""
    while True:
        if isinstance(node, ast.Attribute):
            node = node.value
        elif isinstance(node, ast.Subscript):
            node = node.value
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            node = node.func.value
        elif isinstance(node, ast.Name):
            return node.id
        else:
            return None


def _kind_keyword(call: ast.Call) -> Tuple[bool, Optional[str]]:
    """(present, literal value) of a sort call's ``kind=`` keyword."""
    for kw in call.keywords:
        if kw.arg == "kind":
            if isinstance(kw.value, ast.Constant) and isinstance(kw.value.value, str):
                return True, kw.value.value
            return True, None
    return False, None


class NumpyHygieneChecker(Checker):
    """Dataflow-backed numpy rules for the simulation core."""

    name = "numpy-hygiene"
    codes = {
        "RPR060": "numpy sort/argsort in sim core without kind='stable' "
        "(default introsort reorders equal keys; set-partitioned replay "
        "depends on stable tie order)",
        "RPR061": "integer sum/cumsum/prod accumulating at the platform "
        "C-long dtype (int32 on 64-bit Windows) — pass dtype=np.int64 or "
        "prove the operand is already 64-bit",
        "RPR062": "loop-invariant astype() inside a loop re-copies the "
        "same array every iteration — hoist it out",
        "RPR063": "chained boolean-mask indexing x[mask][...] "
        "materialises the selection twice (and a store through it is "
        "silently dropped) — combine the masks or use np.flatnonzero",
        "RPR064": "in-place operator would change an integer array's "
        "dtype (numpy raises a casting error) — use an out-of-place op "
        "or astype first",
    }
    tags: Optional[FrozenSet[str]] = frozenset({"simcore"})

    def check_module(self, module: ModuleInfo) -> Iterator[Violation]:
        flow = DataflowAnalysis(module.tree)
        yield from self._check_sorts(module, flow)
        yield from self._check_reductions(module, flow)
        yield from self._check_loop_astype(module)
        yield from self._check_chained_masks(module, flow)
        yield from self._check_inplace_casts(module, flow)

    # -- RPR060 ---------------------------------------------------------
    def _check_sorts(
        self, module: ModuleInfo, flow: DataflowAnalysis
    ) -> Iterator[Violation]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            np_name = flow.numpy_call_name(node)
            is_sort = np_name in {"sort", "argsort"}
            if not is_sort and isinstance(node.func, ast.Attribute):
                if node.func.attr in {"sort", "argsort"} and isinstance(
                    flow.value_of(node.func.value), Array
                ):
                    is_sort = True
            if not is_sort:
                continue
            present, kind = _kind_keyword(node)
            if present and kind in _STABLE_KINDS:
                continue
            detail = (
                f"kind={kind!r} is not a stable sort"
                if present
                else "no kind= given, so numpy picks introsort"
            )
            yield module.violation(
                self,
                "RPR060",
                node,
                f"unstable numpy sort in sim core ({detail}); equal keys "
                "must keep program order for set-partitioned replay — use "
                "kind='stable' (value-only sorts may noqa with a reason)",
            )

    # -- RPR061 ---------------------------------------------------------
    def _check_reductions(
        self, module: ModuleInfo, flow: DataflowAnalysis
    ) -> Iterator[Violation]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            np_name = flow.numpy_call_name(node)
            operand: Optional[ast.expr] = None
            if np_name in REDUCTIONS and node.args:
                operand = node.args[0]
                reduction = np_name
            elif isinstance(node.func, ast.Attribute) and node.func.attr in REDUCTIONS:
                if not isinstance(flow.value_of(node.func.value), Array):
                    continue  # not provably a numpy array: list.sum() etc.
                operand = node.func.value
                reduction = node.func.attr
            else:
                continue
            assert reduction is not None
            explicit = self._explicit_dtype(node)
            if explicit is not None:
                if explicit in _SAFE_ACCUM:
                    continue
                yield module.violation(
                    self,
                    "RPR061",
                    node,
                    f"{reduction}() accumulates at explicit dtype "
                    f"{explicit!r}, which can overflow int32-width counts "
                    "on long traces — accumulate at int64",
                )
                continue
            value = flow.value_of(operand) if operand is not None else None
            if isinstance(value, Array):
                if value.dtype in _SAFE_ACCUM:
                    continue
                if value.dtype in _NARROW_INT:
                    yield module.violation(
                        self,
                        "RPR061",
                        node,
                        f"{reduction}() over a {value.dtype} array "
                        f"(origin: {value.origin or 'unknown'}) accumulates "
                        "at the platform C long — int32 on 64-bit Windows; "
                        "pass dtype=np.int64",
                    )
                    continue
            # Untracked dtype: the accumulator width is unprovable.
            yield module.violation(
                self,
                "RPR061",
                node,
                f"{reduction}() over an array of untracked dtype — the "
                "accumulator may be the platform C long (int32 on 64-bit "
                "Windows); pass dtype=np.int64 to pin it",
            )

    @staticmethod
    def _explicit_dtype(call: ast.Call) -> Optional[str]:
        for kw in call.keywords:
            if kw.arg == "dtype":
                return dtype_name(kw.value)
        return None

    # -- RPR062 ---------------------------------------------------------
    def _check_loop_astype(self, module: ModuleInfo) -> Iterator[Violation]:
        for loop in ast.walk(module.tree):
            if not isinstance(loop, (ast.For, ast.While)):
                continue
            rebound: Set[str] = assigned_names(loop.body)
            if isinstance(loop, ast.For):
                rebound |= assigned_names([loop]) - assigned_names(loop.orelse)
            for stmt in loop.body:
                for node in ast.walk(stmt):
                    if (
                        isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr == "astype"
                    ):
                        root = _root_name(node.func.value)
                        if root is None or root in rebound:
                            continue
                        yield module.violation(
                            self,
                            "RPR062",
                            node,
                            f"astype() of loop-invariant {root!r} inside a "
                            "loop copies the whole array every iteration — "
                            "hoist the conversion above the loop",
                        )

    # -- RPR063 ---------------------------------------------------------
    def _check_chained_masks(
        self, module: ModuleInfo, flow: DataflowAnalysis
    ) -> Iterator[Violation]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Subscript):
                continue
            inner = node.value
            if not isinstance(inner, ast.Subscript):
                continue
            mask = flow.value_of(inner.slice)
            if not (isinstance(mask, Array) and mask.dtype == "bool"):
                continue
            if isinstance(node.ctx, (ast.Store, ast.Del)):
                message = (
                    "store through chained boolean-mask indexing writes "
                    "into a temporary copy and is silently dropped — index "
                    "once with a combined mask or np.flatnonzero(mask)"
                )
            else:
                message = (
                    "chained boolean-mask indexing materialises the masked "
                    "selection before indexing it again — combine the masks "
                    "or index np.flatnonzero(mask)"
                )
            yield module.violation(self, "RPR063", node, message)

    # -- RPR064 ---------------------------------------------------------
    def _check_inplace_casts(
        self, module: ModuleInfo, flow: DataflowAnalysis
    ) -> Iterator[Violation]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.AugAssign):
                continue
            target = flow.value_of(node.target)
            if not isinstance(target, Array):
                continue
            if target.dtype not in _NARROW_INT and target.dtype not in {
                "int64",
                "uint64",
                "intp",
                "uintp",
            }:
                continue  # float / untracked targets: no forced downcast
            if isinstance(node.op, ast.Div):
                yield module.violation(
                    self,
                    "RPR064",
                    node,
                    f"in-place /= on a {target.dtype} array requires a "
                    "float result — numpy raises a casting error; use "
                    "x = x / y or //= if integer division is meant",
                )
                continue
            rhs = flow.value_of(node.value)
            rhs_is_float = (
                isinstance(rhs, Array) and rhs.dtype in _FLOAT_DTYPES
            ) or (isinstance(rhs, Const) and isinstance(rhs.value, float))
            if rhs_is_float:
                yield module.violation(
                    self,
                    "RPR064",
                    node,
                    f"in-place op mixes a {target.dtype} array with a float "
                    "operand — numpy cannot cast the result back in place; "
                    "widen the array first or compute out of place",
                )


__all__ = ["NumpyHygieneChecker"]

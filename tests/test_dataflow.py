"""Unit + property tests for ``repro.analysis.dataflow``.

The property test is the anchor for the whole framework: for randomly
generated straight-line/branching programs, whenever the abstract
interpreter claims a module-level name is a constant, executing the
program must agree — the lattice is allowed to lose precision
(``UNKNOWN``), never to be wrong.
"""

from __future__ import annotations

import ast

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.dataflow import (
    UNKNOWN,
    Array,
    Const,
    DataflowAnalysis,
    Instance,
    Unknown,
    collect_classes,
    join,
)


def flow(source: str) -> DataflowAnalysis:
    return DataflowAnalysis(ast.parse(source))


# ----------------------------------------------------------------------
# Constant folding and aliasing
# ----------------------------------------------------------------------
def test_constant_folding_through_arithmetic():
    f = flow("x = 2\ny = x * 3 + 1\nz = y - x")
    assert f.binding("x") == Const(2)
    assert f.binding("y") == Const(7)
    assert f.binding("z") == Const(5)


def test_alias_assignment_copies_value():
    f = flow("a = 41\nb = a\nb += 1")
    assert f.binding("b") == Const(42)
    assert f.binding("a") == Const(41)


def test_unbound_name_is_unknown():
    f = flow("x = 1")
    assert f.binding("never_bound") is UNKNOWN


# ----------------------------------------------------------------------
# Numpy arrays: construction, astype, provenance
# ----------------------------------------------------------------------
def test_array_construction_and_astype_dtype():
    f = flow(
        "import numpy as np\n"
        "a = np.zeros(8, dtype=np.int16)\n"
        "b = a\n"
        "c = b.astype(np.int64)\n"
    )
    a = f.binding("a")
    assert isinstance(a, Array) and a.dtype == "int16"
    b = f.binding("b")
    assert isinstance(b, Array) and b.dtype == "int16"
    c = f.binding("c")
    assert isinstance(c, Array) and c.dtype == "int64"


def test_astype_trusted_without_receiver_provenance():
    # The receiver is untracked, but .astype(np.int64) is numpy-specific
    # enough to pin the result dtype (the vector.py cumsum pattern).
    f = flow("import numpy as np\nwide = mystery.astype(np.int64)\n")
    wide = f.binding("wide")
    assert isinstance(wide, Array) and wide.dtype == "int64"


def test_comparison_yields_bool_array():
    f = flow(
        "import numpy as np\n"
        "a = np.arange(16)\n"
        "mask = a > 4\n"
    )
    mask = f.binding("mask")
    assert isinstance(mask, Array) and mask.dtype == "bool"


# ----------------------------------------------------------------------
# Branch joins and loop demotion
# ----------------------------------------------------------------------
def test_if_join_keeps_agreeing_consts_and_drops_disagreeing():
    f = flow(
        "if flag:\n"
        "    x = 1\n"
        "    z = 4\n"
        "else:\n"
        "    x = 1\n"
        "    z = 5\n"
    )
    assert f.binding("x") == Const(1)
    assert isinstance(f.binding("z"), Unknown)


def test_loop_demotes_carried_names():
    f = flow("x = 1\nfor i in range(3):\n    x = x + 1\n")
    assert isinstance(f.binding("x"), Unknown)


def test_join_is_commutative_on_mixed_values():
    vals = [UNKNOWN, Const(1), Const(2), Array("int64", "zeros")]
    for a in vals:
        for b in vals:
            assert join(a, b) == join(b, a)


# ----------------------------------------------------------------------
# Instances: class table and attribute aliases
# ----------------------------------------------------------------------
_DATACLASS_SRC = """
from dataclasses import dataclass, field


@dataclass
class Inner:
    hits: int = 0
    misses: int = 0


@dataclass
class Outer:
    inner: Inner = field(default_factory=Inner)
    total: int = 0


o = Outer()
i = o.inner
i.hits = 3
o.total += 1
"""


def test_instance_paths_through_attribute_aliases():
    f = flow(_DATACLASS_SRC)
    assert f.binding("o") == Instance("Outer")
    assert f.binding("i") == Instance("Inner")


def test_collect_classes_reads_dataclass_shape():
    schema = collect_classes(ast.parse(_DATACLASS_SRC))
    assert set(schema["Inner"].fields) == {"hits", "misses"}
    assert schema["Outer"].fields["inner"] == "Inner"


# ----------------------------------------------------------------------
# Property: abstract constants agree with concrete execution
# ----------------------------------------------------------------------
NAMES = ("a", "b", "c", "d")
_OPS = ("+", "-", "*")
small_int = st.integers(min_value=-50, max_value=50)


@st.composite
def straightline_programs(draw) -> str:
    """Module-level assignments: literals, aliases, binops, augassigns."""
    count = draw(st.integers(min_value=1, max_value=10))
    bound: list = []
    lines = []
    for _ in range(count):
        target = draw(st.sampled_from(NAMES))
        kinds = ["lit"]
        if bound:
            kinds += ["alias", "binop"]
        if target in bound:
            kinds.append("aug")
        kind = draw(st.sampled_from(kinds))
        if kind == "lit":
            lines.append(f"{target} = {draw(small_int)}")
        elif kind == "alias":
            lines.append(f"{target} = {draw(st.sampled_from(bound))}")
        elif kind == "binop":
            src = draw(st.sampled_from(bound))
            op = draw(st.sampled_from(_OPS))
            lines.append(f"{target} = {src} {op} {draw(small_int)}")
        else:
            op = draw(st.sampled_from(_OPS))
            lines.append(f"{target} {op}= {draw(small_int)}")
        if target not in bound:
            bound.append(target)
    return "\n".join(lines)


@st.composite
def branching_programs(draw) -> str:
    head = draw(straightline_programs())
    then_body = draw(straightline_programs())
    else_body = draw(straightline_programs())
    cond = draw(small_int)

    def indent(block: str) -> str:
        return "\n".join("    " + line for line in block.splitlines())

    return (
        f"{head}\n"
        f"if {cond} > 0:\n{indent(then_body)}\n"
        f"else:\n{indent(else_body)}"
    )


def _exec_namespace(source: str) -> dict:
    namespace: dict = {}
    exec(compile(source, "<fixture>", "exec"), namespace)
    return namespace


@settings(max_examples=200, deadline=None)
@given(branching_programs())
def test_const_bindings_are_sound(source):
    analysis = flow(source)
    namespace = _exec_namespace(source)
    for name in NAMES:
        value = analysis.binding(name)
        if isinstance(value, Const):
            assert name in namespace, source
            assert namespace[name] == value.value, source


@settings(max_examples=200, deadline=None)
@given(straightline_programs())
def test_straightline_consts_are_complete(source):
    # Without branches or loops nothing forces a join: every bound name
    # must resolve to the exact executed value.
    analysis = flow(source)
    namespace = _exec_namespace(source)
    for name in NAMES:
        if name in namespace:
            assert analysis.binding(name) == Const(namespace[name]), source
        else:
            assert isinstance(analysis.binding(name), Unknown)

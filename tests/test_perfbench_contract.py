"""The benchmark's attribute contract with the package.

``perfbench/tracing.py`` times a layer by replacing a module or class
attribute by name, and ``perfbench/selftest.py`` slows the same
attributes to check that each slowdown shows up in the right layer.  A
refactor that moves or renames one of those attributes would silently
drop its span, so this test resolves every entry of the ``WRAPPED``
table and checks the one call path the self-test leans on hardest:
both L1 and L2 passes reach ``set_lru_flags`` through the
``repro.system.vector`` module global, only sets wider than two ways
reach ``stack_distances``, and the accuracy measurement reaches it
through the ``repro.mrc.stack`` module.
"""

from __future__ import annotations

import importlib
import importlib.util
from dataclasses import replace
from pathlib import Path

import pytest

from repro.core import accuracy
from repro.mrc import stack
from repro.system import vector
from repro.system.config import PAPER_MACHINE
from repro.system.policies import BASELINE
from repro.workloads.spec_analogs import build

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_wrapped_table():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    assert spec is not None and spec.loader is not None
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WRAPPED


#: Span name -> (module, attribute path), read from the benchmark itself.
WRAPPED = _load_wrapped_table()


@pytest.mark.parametrize("span", sorted(WRAPPED))
def test_wrapped_attribute_resolves(span):
    module_name, path = WRAPPED[span]
    owner = importlib.import_module(module_name)
    for part in path.split("."):
        owner = getattr(owner, part)
    assert callable(owner), span


def test_both_vector_passes_call_set_lru_flags_through_the_module(monkeypatch):
    calls = []
    original = vector.set_lru_flags

    def counting(blocks, sets, assoc):
        calls.append((len(blocks), assoc))
        return original(blocks, sets, assoc)

    monkeypatch.setattr(vector, "set_lru_flags", counting)
    machine = replace(PAPER_MACHINE, l1=replace(PAPER_MACHINE.l1, assoc=2))
    trace = build("gcc", 3_000, 0)
    stats = vector.simulate_vector(trace, BASELINE, machine)
    # The L1 pass sees every reference; the L2 pass sees the L1 misses.
    assert calls == [
        (len(trace), machine.l1.assoc),
        (stats.l1.misses, machine.l2.assoc),
    ]


def test_accuracy_calls_stack_distances_through_the_module(monkeypatch):
    # Hill's truth is one stack pass per accuracy call; a name bound at
    # import would hide it from the mrc.stack_distances span.
    calls = []
    original = stack.stack_distances

    def counting(blocks):
        calls.append(len(blocks))
        return original(blocks)

    monkeypatch.setattr(stack, "stack_distances", counting)
    trace = build("gcc", 3_000, 0)
    accuracy.measure_accuracy(trace.addresses, PAPER_MACHINE.l1)
    assert calls == [len(trace)]


@pytest.mark.parametrize(("l1_assoc", "stack_passes"), [(1, 0), (2, 0), (4, 1)])
def test_only_sets_wider_than_two_reach_the_stack_kernel(
    monkeypatch, l1_assoc, stack_passes
):
    # CI's traced bench step counts mrc.stack_distances spans per
    # bufferless_sweep pass.  set_lru_flags answers the 2-way L2 and 1-
    # and 2-way L1s in closed form, so only a 4-way L1 runs the kernel.
    calls = []
    original = stack.stack_distances

    def counting(blocks):
        calls.append(len(blocks))
        return original(blocks)

    monkeypatch.setattr(stack, "stack_distances", counting)
    machine = replace(PAPER_MACHINE, l1=replace(PAPER_MACHINE.l1, assoc=l1_assoc))
    vector.simulate_vector(build("gcc", 3_000, 0), BASELINE, machine)
    assert len(calls) == stack_passes

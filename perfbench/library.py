"""The two in-process workloads: ``bufferless_sweep`` and ``paper_figures``.

Each workload is a fixed list of public calls (one *pass*).  The timed
section repeats passes until the time budget is spent.  The shared
reference host runs the same code at speeds up to ~2x apart, in states
that can last a whole run, and CPU time slows with wall time there (it
is contention for the core, not time stolen from the process).  So
before each call a pass runs a fixed *speed kernel* owned by the
benchmark and written like the workload's code, and the pass's call
times are scaled by ``reference_s`` over the pass's median kernel time:
they read as host seconds at the speed where the kernel takes
``reference_s``.  Each call's time is its scaled median over the
passes; a rate is the workload's trace references divided by the sum
of its calls' times.  Every output is checked after the timed section
against a reference that shares no code with the timed path, except
the buffered ``paper_figures`` cells: only the scalar engine runs
buffered policies, so their outputs are checked against digests pinned
per seed in ``buffered_digests.json`` (written by ``pin_digests.py``).
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import os
import resource
import statistics
import sys
import traceback
from collections import OrderedDict
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np
from tracing import (
    LIBRARY_SPANS,
    Recorder,
    Span,
    patched,
    perf_counter,
    self_times,
)

from repro.buffers import amb, prefetch, victim
from repro.buffers.exclusion import figure5_policies
from repro.core import accuracy
from repro.core.filters import ConflictFilter
from repro.experiments.fig1_accuracy import FIG1_CONFIGS
from repro.mrc import curve
from repro.system import BASELINE, PAPER_MACHINE, simulator
from repro.system.config import MachineConfig
from repro.system.policies import AssistConfig, ExclusionMode
from repro.workloads import spec_analogs
from repro.workloads.trace import Trace

#: One analog per band of the paper L1's miss rate: go ~7%, gcc and li
#: ~15%, tomcatv and compress ~37% (16KB direct-mapped).
SWEEP_ANALOGS = ("go", "gcc", "li", "tomcatv", "compress")
SWEEP_REFS = 60_000
SWEEP_WARMUP = 15_000
SWEEP_ASSOCS = (1, 2, 4)

#: Two Section-5 analogs: tomcatv (the big assist-buffer winner) and
#: gcc (irregular, modest memory impact).
PAPER_ANALOGS = ("tomcatv", "gcc")
PAPER_REFS = 12_000
PAPER_WARMUP = 3_000

MiB = 1024 * 1024
PINNED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "buffered_digests.json")


def machine_with_assoc(assoc: int) -> MachineConfig:
    return dataclasses.replace(
        PAPER_MACHINE, l1=dataclasses.replace(PAPER_MACHINE.l1, assoc=assoc)
    )


def paper_policies() -> List[AssistConfig]:
    """BASELINE plus one preset from each Section-5 family."""
    by_mode = {p.exclusion: p for p in figure5_policies()}
    return [
        BASELINE,
        victim.filter_both(),
        prefetch.next_line(filt=ConflictFilter.OR_CONFLICT),
        by_mode[ExclusionMode.CAPACITY],
        by_mode[ExclusionMode.MAT],
        amb.vic_pre_exc(),
    ]


@dataclasses.dataclass
class Call:
    """One public call of a pass."""

    kind: str  # "sim", "mrc" or "acc"
    label: str
    refs: int
    run: Callable[[], Any]
    #: Reduces the call's output to a comparable value.
    digest: Callable[[Any], Any]
    #: Computes the expected digest without the timed code path; None
    #: for a buffered cell, which is checked against its pinned digest.
    reference: Optional[Callable[[], Any]]


def _sim_digest(stats: Any) -> Dict[str, Any]:
    return stats.as_dict()


def _acc_digest(result: Any) -> Tuple[int, ...]:
    c = result.classification
    return (
        c.conflict_as_conflict,
        c.conflict_as_capacity,
        c.capacity_as_capacity,
        c.capacity_as_conflict,
        result.compulsory_misses,
        result.cache.misses,
        result.cache.accesses,
    )


def _mrc_digest(mrc: Any) -> Tuple[Any, ...]:
    return (mrc.total_refs, mrc.cold_misses, mrc.sizes_lines, mrc.misses)


def reference_accuracy(addresses: List[int], geometry: Any) -> Tuple[int, ...]:
    """Straight-line Figure 1 accuracy: set-LRU + MCT + Hill's FA oracle.

    Written from the paper's definitions, independent of ``repro.cache``
    and ``repro.core``: a miss is predicted conflict when its tag equals
    the tag most recently evicted from its set, and is truly conflict
    when it is not a first touch and a fully-associative LRU cache of
    equal capacity holds the block.
    """
    shift = geometry.line_size.bit_length() - 1
    num_sets = geometry.size // geometry.line_size // geometry.assoc
    index_bits = num_sets.bit_length() - 1
    capacity = geometry.size // geometry.line_size
    assoc = geometry.assoc
    ways: List[List[int]] = [[] for _ in range(num_sets)]
    last_evicted: List[Optional[int]] = [None] * num_sets
    fa: "OrderedDict[int, None]" = OrderedDict()
    seen = set()
    cc = c_cap = cap_cap = cap_c = compulsory = misses = 0
    for addr in addresses:
        block = addr >> shift
        index = block & (num_sets - 1)
        tag = block >> index_bits
        lru = ways[index]
        if tag in lru:
            lru.remove(tag)
            lru.append(tag)
        else:
            misses += 1
            predicted = last_evicted[index] == tag
            if block not in seen:
                compulsory += 1
                actual = False
            else:
                actual = block in fa
            if actual:
                cc += predicted
                c_cap += not predicted
            else:
                cap_c += predicted
                cap_cap += not predicted
            if len(lru) == assoc:
                last_evicted[index] = lru.pop(0)
            lru.append(tag)
        if block in fa:
            fa.move_to_end(block)
        else:
            fa[block] = None
            if len(fa) > capacity:
                fa.popitem(last=False)
        seen.add(block)
    return (cc, c_cap, cap_cap, cap_c, compulsory, misses, len(addresses))


def buffered_digest(outputs: List[Dict[str, Any]]) -> str:
    """One digest over the buffered cells' ``as_dict()`` outputs, in order."""
    h = hashlib.sha256()
    for out in outputs:
        h.update(json.dumps(out, sort_keys=True).encode())
    return h.hexdigest()[:16]


def _reference_mrc(addresses: List[int], sizes: Tuple[int, ...]) -> Tuple[Any, ...]:
    misses = tuple(
        curve.brute_force_fa_misses(addresses, 64, size) for size in sizes
    )
    distinct = len({a >> 6 for a in addresses})
    return (len(addresses), distinct, sizes, misses)


def _footprint_lines(trace: Trace) -> int:
    return len(set((trace.addresses >> 6).tolist()))


def build_traces(names: Tuple[str, ...], refs: int, seed: int) -> Dict[str, Trace]:
    return {name: spec_analogs.build(name, refs, seed) for name in names}


def sweep_calls(traces: Dict[str, Trace]) -> List[Call]:
    calls: List[Call] = []
    sizes = curve.default_size_ladder(64)
    for name, trace in traces.items():
        for assoc in SWEEP_ASSOCS:
            machine = machine_with_assoc(assoc)
            calls.append(Call(
                "sim", f"{name}/{assoc}way", len(trace),
                lambda t=trace, m=machine: simulator.simulate(
                    t, BASELINE, m, warmup=SWEEP_WARMUP
                ),
                _sim_digest,
                lambda t=trace, m=machine, f=simulator.simulate: f(
                    t, BASELINE, m, warmup=SWEEP_WARMUP, engine="scalar"
                ).as_dict(),
            ))
        addresses = trace.addresses
        calls.append(Call(
            "mrc", f"{name}/mrc", len(trace),
            lambda a=addresses: curve.compute_mrc(a),
            _mrc_digest,
            lambda a=addresses: _reference_mrc(a.tolist(), sizes),
        ))
    return calls


def paper_calls(traces: Dict[str, Trace]) -> List[Call]:
    calls: List[Call] = []
    for name, trace in traces.items():
        for policy in paper_policies():
            calls.append(Call(
                "sim", f"{name}/{policy.name}", len(trace),
                lambda t=trace, p=policy: simulator.simulate(
                    t, p, PAPER_MACHINE, warmup=PAPER_WARMUP
                ),
                _sim_digest,
                (lambda t=trace, f=simulator.simulate: f(
                    t, BASELINE, PAPER_MACHINE, warmup=PAPER_WARMUP, engine="scalar"
                ).as_dict()) if policy is BASELINE else None,
            ))
        addresses = trace.addresses
        for geometry in FIG1_CONFIGS:
            calls.append(Call(
                "acc", f"{name}/acc{geometry.size >> 10}k{geometry.assoc}w",
                len(trace),
                lambda a=addresses, g=geometry: accuracy.measure_accuracy(a, g),
                _acc_digest,
                lambda a=addresses, g=geometry: reference_accuracy(a.tolist(), g),
            ))
    return calls


_KERNEL_RNG = np.random.default_rng(12345)
_KERNEL_ADDRS = (_KERNEL_RNG.integers(0, 1 << 14, 2500) << 6).tolist()
_KERNEL_ARRAY = _KERNEL_RNG.integers(0, 1 << 20, 30000)


@dataclasses.dataclass(frozen=True)
class Kernel:
    """A fixed few-millisecond job that measures the host's current speed.

    Trials on the reference host matched the kernel to the workload's
    code.  Scaled by the interpreter kernel, ``paper_figures``' rates
    spread ~3% between runs instead of ~15-19%.  ``bufferless_sweep``
    runs numpy passes driven by Python: the numpy kernel alone did as
    well as the pair in the host's usual state, but in its fast state
    the interpreter speeds up ~1.85x, numpy ~1.2x and the sweep ~1.5x,
    so the sweep is scaled by the two kernels run back to back.
    """

    name: str
    run: Callable[[], Any]
    #: The kernel's time on the reference host, in seconds.
    reference_s: float

    def time(self) -> float:
        # The garbage collector stays off, so the program's live heap
        # cannot slow the kernel and hide its own cost.
        gc.disable()
        try:
            t0 = perf_counter()
            self.run()
            return perf_counter() - t0
        finally:
            gc.enable()


#: Pure-Python loops, like the scalar engine and the accuracy loop.
INTERPRETER_KERNEL = Kernel(
    "interpreter: reference_accuracy over 2500 fixed addresses",
    lambda: reference_accuracy(_KERNEL_ADDRS, FIG1_CONFIGS[0]),
    0.0032,
)
#: A sub-millisecond cut of the interpreter kernel, short enough to run
#: beside the service's load generator threads without delaying them.
#: Its reference is its time there, every 5 ms between sleeps; in a hot
#: loop it takes about half as long.
PROBE_KERNEL = Kernel(
    "interpreter: reference_accuracy over 300 fixed addresses",
    lambda: reference_accuracy(_KERNEL_ADDRS[:300], FIG1_CONFIGS[0]),
    0.00036,
)
#: A stable argsort and a prefix sum, like the vector engine and mrc.
NUMPY_KERNEL = Kernel(
    "numpy: stable argsort + cumsum of 30000 fixed ints",
    lambda: np.cumsum(_KERNEL_ARRAY[np.argsort(_KERNEL_ARRAY, kind="stable")]),
    0.0030,
)
#: Both, back to back, like the vector engine's Python-driven passes.
VECTOR_KERNEL = Kernel(
    "interpreter + numpy kernels, back to back",
    lambda: (INTERPRETER_KERNEL.run(), NUMPY_KERNEL.run()),
    INTERPRETER_KERNEL.reference_s + NUMPY_KERNEL.reference_s,
)


class Timing:
    """Per-call durations, outputs and failures over a timed section."""

    def __init__(self, calls: List[Call], kernel: Kernel) -> None:
        self.calls = calls
        self.kernel = kernel
        #: Scaled call times (see the module docstring) and raw ones.
        self.times: Dict[str, List[float]] = {c.label: [] for c in calls}
        self.raw: Dict[str, List[float]] = {c.label: [] for c in calls}
        #: Per pass: median kernel time over ``kernel.reference_s``.
        self.slowness: List[float] = []
        self.first: Dict[str, Any] = {}
        self.outputs: Dict[str, Any] = {}
        self.attempted = 0
        self.failed = 0
        self.passes = 0
        #: Wall time of the passes, less the kernel runs.
        self.wall = 0.0

    def run_pass(self) -> None:
        t_pass = perf_counter()
        kernel_times = []
        done = []
        for call in self.calls:
            kernel_times.append(self.kernel.time())
            self.attempted += 1
            t0 = perf_counter()
            try:
                out = call.run()
            except Exception:
                traceback.print_exc(file=sys.stderr)
                self.failed += 1
                continue
            done.append((call.label, perf_counter() - t0))
            digest = call.digest(out)
            if call.label not in self.first:
                self.first[call.label] = digest
                self.outputs[call.label] = out
            elif digest != self.first[call.label]:
                self.failed += 1
        slowness = statistics.median(kernel_times) / self.kernel.reference_s
        for label, t in done:
            self.raw[label].append(t)
            self.times[label].append(t / slowness)
        self.slowness.append(slowness)
        self.passes += 1
        self.wall += perf_counter() - t_pass - sum(kernel_times)

    def rate(self, kind: str, raw: bool = False) -> float:
        times = self.raw if raw else self.times
        chosen = [c for c in self.calls if c.kind == kind and times[c.label]]
        return sum(c.refs for c in chosen) / sum(
            statistics.median(times[c.label]) for c in chosen
        )

    def median_times_ms(self) -> List[float]:
        return sorted(
            1000.0 * statistics.median(ts) for ts in self.times.values() if ts
        )


def check_references(timing: Timing, pinned: Optional[str]) -> int:
    """Compare each call's first output with its reference; count failures.

    A mismatching first output fails every repeat of that call.  The
    buffered cells are compared, together, with ``pinned``; with no pin
    for the seed they are checked only for repeating exactly.
    """
    failed = 0
    buffered = []
    for call in timing.calls:
        if call.label not in timing.first:
            continue
        if call.reference is None:
            buffered.append(call)
        elif timing.first[call.label] != call.reference():
            print(
                f"check failed: {call.label} differs from its reference",
                file=sys.stderr,
            )
            failed += len(timing.times[call.label])
    if buffered and pinned is not None:
        digest = buffered_digest([timing.first[c.label] for c in buffered])
        if digest != pinned:
            print(
                f"check failed: buffered cells digest {digest} != pinned {pinned}",
                file=sys.stderr,
            )
            failed += sum(len(timing.times[c.label]) for c in buffered)
    return failed


def layer_metrics(
    spans: List[Span],
    scale: List[float],
    setup_spans: List[Span],
    passes: int,
    wall: float,
) -> Dict[str, float]:
    """Per-layer metrics from the spans of the traced passes.

    Times and counts are per pass (the workload's fixed unit of work);
    each span's times are scaled by ``scale``, its pass's kernel scaling.
    """
    raw = [s[2] - s[1] for s in spans]
    dur = [d * f for d, f in zip(raw, scale)]
    own = [d * f for d, f in zip(self_times(spans), scale)]
    per = 1.0 / max(passes, 1)
    out: Dict[str, float] = {}

    def total(name: str) -> Tuple[int, float]:
        chosen = [i for i, s in enumerate(spans) if s[0] == name]
        return len(chosen), sum(dur[i] for i in chosen)

    builds = [s for s in setup_spans if s[0] == "workloads.build"]
    out["workloads.build_calls"] = len(builds)
    out["workloads.build_s"] = sum(s[2] - s[1] for s in builds)

    sims = [i for i, s in enumerate(spans) if s[0] == "system.simulate"]
    vector_parents = {s[3] for s in spans if s[0] == "system.vector"}
    scalar = [i for i in sims if i not in vector_parents]
    vectors = [i for i, s in enumerate(spans) if s[0] == "system.vector"]
    out["system.simulate_calls"] = len(sims) * per
    out["system.simulate_s"] = sum(dur[i] for i in sims) * per
    out["system.vector_calls"] = len(vectors) * per
    out["system.vector_s"] = sum(dur[i] for i in vectors) * per
    out["system.vector_self_s"] = sum(own[i] for i in vectors) * per
    out["system.scalar_calls"] = len(scalar) * per
    out["system.scalar_s"] = sum(dur[i] for i in scalar) * per
    out["system.vector_call_frac"] = len(vectors) / len(sims) if sims else 0.0
    for name in ("mrc.stack_distances", "mrc.set_lru_flags"):
        n, t = total(name)
        out[f"{name}_calls"] = n * per
        out[f"{name}_s"] = t * per
    out["mrc.compute_mrc_s"] = total("mrc.compute_mrc")[1] * per
    n, t = total("core.accuracy")
    out["core.accuracy_calls"] = n * per
    out["core.accuracy_s"] = t * per
    top = sum(raw[i] for i, s in enumerate(spans) if s[3] < 0)
    out["trace.coverage"] = top / wall if wall else 0.0
    return out


def l1_miss_frac(timing: Timing) -> float:
    misses = accesses = 0
    for call in timing.calls:
        out = timing.outputs.get(call.label)
        if call.kind == "sim" and out is not None:
            misses += out.l1.misses
            accesses += out.l1.accesses
    return misses / accesses if accesses else 0.0


def setup(workload: str, seed: int, recorder: Optional[Recorder]) -> Dict[str, Any]:
    """Synthesize the workload's traces and its list of calls."""
    sweep = workload == "bufferless_sweep"
    names, refs = (SWEEP_ANALOGS, SWEEP_REFS) if sweep else (PAPER_ANALOGS, PAPER_REFS)
    with patched(("workloads.build",), recorder):
        traces = build_traces(names, refs, seed)
    setup_spans = recorder.finished() if recorder is not None else []
    calls = sweep_calls(traces) if sweep else paper_calls(traces)
    pinned = None
    if not sweep:
        with open(PINNED_PATH, encoding="utf-8") as src:
            pinned = json.load(src).get(str(seed))
    return {
        "traces": traces,
        "calls": calls,
        "kernel": VECTOR_KERNEL if sweep else INTERPRETER_KERNEL,
        "setup_spans": setup_spans,
        "pinned": pinned,
    }


def measure(
    workload: str,
    state: Dict[str, Any],
    seconds: float,
    trace: bool,
    slow: Optional[str],
) -> Dict[str, Any]:
    calls: List[Call] = state["calls"]
    kernel: Kernel = state["kernel"]
    plain = Timing(calls, kernel)
    traced = Timing(calls, kernel)
    recorder = Recorder()
    #: Index of each traced pass's first span.
    pass_starts: List[int] = []

    def traced_pass() -> None:
        pass_starts.append(len(recorder.spans))
        with patched(LIBRARY_SPANS, recorder, slow):
            traced.run_pass()

    start = perf_counter()
    while plain.passes == 0 or perf_counter() - start < seconds:
        # A traced run alternates untraced and traced passes, so the
        # two halves see the same machine state and their ratio is the
        # tracing overhead.
        if trace and plain.passes > traced.passes:
            traced_pass()
        else:
            with patched(LIBRARY_SPANS, None, slow):
                plain.run_pass()
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MiB
    if trace and traced.passes == 0:
        traced_pass()

    failed = plain.failed + traced.failed + check_references(plain, state["pinned"])
    # The traced passes must reproduce the untraced outputs exactly.
    for label, digest in traced.first.items():
        if plain.first.get(label) != digest:
            failed += len(traced.times[label])
    attempted = plain.attempted + traced.attempted

    second = "mrc" if workload == "bufferless_sweep" else "acc"
    times = plain.median_times_ms()
    e2e = {
        "refs_per_s": plain.rate("sim"),
        "aux_refs_per_s": plain.rate(second),
        "peak_rss_mib": peak_rss_mib,
    }
    at_reference = f"at reference speed; {plain.rate('sim', raw=True):.6g} in host s"
    named = {
        "sim_refs_per_s": (e2e["refs_per_s"], f"refs/s ({at_reference})"),
        ("mrc_refs_per_s" if second == "mrc" else "accuracy_refs_per_s"): (
            e2e["aux_refs_per_s"],
            f"refs/s (at reference speed; {plain.rate(second, raw=True):.6g} in host s)",
        ),
        "call_p50_ms": (statistics.median(times), f"ms (median over {len(times)} calls)"),
        "call_max_ms": (times[-1], f"ms (slowest of {len(times)} calls)"),
        "host_slowness": (
            statistics.median(plain.slowness),
            f"(kernel time over its reference, median over {plain.passes} passes; "
            f"kernel: {kernel.name})",
        ),
        "peak_rss_mib": (peak_rss_mib, "MiB"),
    }
    traces: Dict[str, Trace] = state["traces"]
    descriptor: Dict[str, Any] = {
        "analogs": list(traces),
        "refs": len(next(iter(traces.values()))),
        "warmup": SWEEP_WARMUP if workload == "bufferless_sweep" else PAPER_WARMUP,
        "passes": plain.passes,
        "calls_per_pass": len(calls),
        "timed_calls": plain.attempted,
        "kernel": kernel.name,
        "kernel_reference_s": kernel.reference_s,
        "slowness_per_pass": plain.slowness,
        "call_times_s": plain.times,
        "raw_call_times_s": plain.raw,
        "footprint_lines": {n: _footprint_lines(t) for n, t in traces.items()},
        "buffered_cells_checked_against": (
            None if workload == "bufferless_sweep"
            else "pinned digest" if state["pinned"] else "repeats only (seed not pinned)"
        ),
        "l1_lines": PAPER_MACHINE.l1.num_lines,
        "l2_lines": PAPER_MACHINE.l2.num_lines,
        "l1_miss_share": {
            c.label: plain.outputs[c.label].l1.misses / plain.outputs[c.label].l1.accesses
            for c in calls
            if c.kind == "sim" and c.label in plain.outputs
        },
    }
    layer: Dict[str, float] = {}
    if trace:
        spans = recorder.finished()
        bounds = pass_starts[1:] + [len(spans)]
        scale = [
            1.0 / slowness
            for first, end, slowness in zip(pass_starts, bounds, traced.slowness)
            for _ in range(end - first)
        ]
        layer = layer_metrics(spans, scale, state["setup_spans"], traced.passes, traced.wall)
        layer["system.l1_miss_frac"] = l1_miss_frac(plain)
        if workload == "bufferless_sweep" and layer["system.vector_call_frac"] != 1.0:
            print("check failed: a bufferless cell left the vector engine", file=sys.stderr)
            failed += 1
        traced_rate = traced.rate("sim")
        layer["trace.overhead_frac"] = e2e["refs_per_s"] / traced_rate - 1.0
        state["spans"] = spans
    return {
        "attempted": attempted,
        "failed": failed,
        "slowness": statistics.median(plain.slowness),
        "e2e": e2e,
        "named": named,
        "layer": layer,
        "descriptor": descriptor,
    }

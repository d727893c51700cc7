"""Spans around the public functions of the repro layers.

The benchmark never edits ``src/``: it times a layer by replacing the
module or class attribute that callers look up with a wrapper that
records a span (name, start, end, parent span, session) and calls the
original.  Only per-call entry points are wrapped; per-reference
functions (``MemorySystem.access``, MCT ``classify``, cache lookups)
are not, because a wrapper there would cost more than the call.

The same table also drives the layer-attribution self-test: a *slowed*
attribute spins after each call for as long again as the call took, so
the layer costs twice as much while every output stays the same.

Spans stay in memory (one tuple each) and are written out once, when
the run ends.  All timestamps are ``time.perf_counter()``, which is
CLOCK_MONOTONIC on Linux and so comparable between the benchmark and
the server process.
"""

from __future__ import annotations

import asyncio
import importlib
import json
import time
import weakref
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

perf_counter = time.perf_counter

#: Span name -> (module, attribute path).  A dotted attribute path names
#: a method on a class, replaced on the class itself.
WRAPPED: Dict[str, Tuple[str, str]] = {
    "workloads.build": ("repro.workloads.spec_analogs", "build"),
    "system.simulate": ("repro.system.simulator", "simulate"),
    "system.vector": ("repro.system.vector", "simulate_vector"),
    "mrc.set_lru_flags": ("repro.system.vector", "set_lru_flags"),
    "mrc.stack_distances": ("repro.mrc.stack", "stack_distances"),
    "mrc.compute_mrc": ("repro.mrc.curve", "compute_mrc"),
    "core.accuracy": ("repro.core.accuracy", "measure_accuracy"),
    "mrc.shards_feed": ("repro.mrc.sampling", "ShardsEstimator.feed"),
    "mrc.shards_result": ("repro.mrc.sampling", "ShardsEstimator.result"),
    "serve.decode": ("repro.serve.protocol", "decode_frame"),
    "serve.encode": ("repro.serve.protocol", "encode_frame"),
    "serve.feed": ("repro.serve.pipeline", "TenantPipeline.feed"),
    "serve.snapshot": ("repro.serve.pipeline", "TenantPipeline.snapshot"),
    "serve.mrc": ("repro.serve.pipeline", "TenantPipeline.mrc"),
    "serve.verdict": ("repro.serve.pipeline", "TenantPipeline.verdict"),
}

#: Spans recorded in the benchmark's own process and in the server.
LIBRARY_SPANS = (
    "workloads.build",
    "system.simulate",
    "system.vector",
    "mrc.set_lru_flags",
    "mrc.stack_distances",
    "mrc.compute_mrc",
    "core.accuracy",
)
SERVER_SPANS = (
    "mrc.shards_feed",
    "mrc.shards_result",
    "serve.decode",
    "serve.encode",
    "serve.feed",
    "serve.snapshot",
    "serve.mrc",
    "serve.verdict",
)

#: Functions the self-test may slow to 2x, and the span each one is.
#: ``simulate.scalar`` slows only the simulate() calls the scalar engine
#: serves (those that never reach the vector engine).
SLOWABLE = {
    "set_lru_flags": "mrc.set_lru_flags",
    "simulate.scalar": "system.simulate",
    "measure_accuracy": "core.accuracy",
    "compute_mrc": "mrc.compute_mrc",
    "TenantPipeline.feed": "serve.feed",
}

#: One recorded span: (name, start, end, parent index or -1, session).
Span = Tuple[str, float, float, int, int]
OPEN: Span = ("open", 0.0, 0.0, -1, 0)


def _resolve(module: str, path: str) -> Tuple[Any, str]:
    owner: Any = importlib.import_module(module)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def _spin(seconds: float) -> None:
    """Busy-wait, so a slowed call costs CPU time as well as wall time."""
    end = perf_counter() + seconds
    while perf_counter() < end:
        pass


def _slowed(fn: Callable[..., Any], scalar_only: bool) -> Callable[..., Any]:
    """``fn`` at twice its cost: spin as long again as the call took."""
    if scalar_only:
        from repro.system import PAPER_MACHINE, vector

        def scalar_slowed(*args: Any, **kwargs: Any) -> Any:
            t0 = perf_counter()
            out = fn(*args, **kwargs)
            machine = args[2] if len(args) > 2 else kwargs.get("machine", PAPER_MACHINE)
            if vector.vector_ineligibility(args[1], machine) is not None:
                _spin(perf_counter() - t0)
            return out

        return scalar_slowed

    def slowed(*args: Any, **kwargs: Any) -> Any:
        t0 = perf_counter()
        out = fn(*args, **kwargs)
        _spin(perf_counter() - t0)
        return out

    return slowed


class Recorder:
    """In-memory span log plus the attribute patching that feeds it."""

    def __init__(self, sessions: bool = False) -> None:
        self.spans: List[Optional[Span]] = []
        self._stack: List[int] = []
        #: In the server, spans carry the asyncio task (= session) they
        #: ran on; tasks are numbered in order of first appearance.
        self._sessions = sessions
        self._task_ids: "weakref.WeakKeyDictionary[Any, int]" = (
            weakref.WeakKeyDictionary()
        )
        self._tasks_seen = 0
        #: Session number -> tenant named in that session's open frame.
        self.tenants: Dict[int, str] = {}

    def _session(self) -> int:
        if not self._sessions:
            return 0
        try:
            task = asyncio.current_task()
        except RuntimeError:
            return 0
        if task is None:
            return 0
        sid = self._task_ids.get(task)
        if sid is None:
            self._tasks_seen += 1
            sid = self._task_ids[task] = self._tasks_seen
        return sid

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        spans = self.spans
        stack = self._stack
        session = self._session
        tenants = self.tenants
        is_decode = name == "serve.decode"

        def traced(*args: Any, **kwargs: Any) -> Any:
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                sid = session()
                spans[index] = (name, t0, t1, parent, sid)
            if is_decode and out.get("op") == "open":
                tenants[sid] = str(out.get("tenant"))
            return out

        return traced

    def finished(self) -> List[Span]:
        """The spans so far; one still open reads as an empty span."""
        return [OPEN if s is None else s for s in self.spans]

    def dump(self, path: str) -> None:
        """Write every span as one JSON line (done once, at the end)."""
        with open(path, "w", encoding="utf-8") as out:
            for span in self.finished():
                out.write(json.dumps(span) + "\n")
            out.write(json.dumps({"tenants": self.tenants}) + "\n")


@contextmanager
def patched(
    names: Tuple[str, ...],
    recorder: Optional[Recorder] = None,
    slow: Optional[str] = None,
) -> Iterator[None]:
    """Replace the named attributes for the duration of the block.

    ``recorder`` adds a span wrapper to each name; ``slow`` (a key of
    :data:`SLOWABLE`) slows that one function inside its span.
    """
    slow_span = SLOWABLE[slow] if slow else None
    saved = []
    try:
        for name in names:
            if recorder is None and name != slow_span:
                continue
            owner, attr = _resolve(*WRAPPED[name])
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            saved.append((owner, attr, original))
            fn = original
            if name == slow_span:
                fn = _slowed(fn, scalar_only=slow == "simulate.scalar")
            if recorder is not None:
                fn = recorder.wrap(name, fn)
            setattr(owner, attr, fn)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def load_spans(path: str) -> Tuple[List[Span], Dict[int, str]]:
    spans: List[Span] = []
    tenants: Dict[int, str] = {}
    with open(path, encoding="utf-8") as src:
        for line in src:
            item = json.loads(line)
            if isinstance(item, dict):
                tenants = {int(k): v for k, v in item["tenants"].items()}
            else:
                spans.append(tuple(item))  # type: ignore[arg-type]
    return spans, tenants


def self_times(spans: List[Span]) -> List[float]:
    """Each span's duration minus the part its children cover.

    Children of one span never overlap (calls are synchronous), so their
    coverage is the sum of their durations.
    """
    child = [0.0] * len(spans)
    for name, t0, t1, parent, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    return [s[2] - s[1] - c for s, c in zip(spans, child)]

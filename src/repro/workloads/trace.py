"""Memory-reference traces.

A :class:`Trace` is the unit of work every simulator in this library
consumes: a sequence of data references, each carrying a byte address, a
load/store flag and a *gap* — the number of non-memory instructions the
program executed since the previous reference.  Gaps drive the timing
model's instruction-issue clock; addresses drive the caches.

Traces are stored as parallel numpy arrays so that multi-million-reference
workloads stay compact and cheap to slice, while :meth:`Trace.__iter__`
still yields light-weight :class:`MemoryRef` views for code that prefers
objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np


@dataclass(frozen=True)
class MemoryRef:
    """One data reference."""

    address: int
    is_load: bool = True
    gap: int = 3
    pc: int = 0


class Trace:
    """An immutable sequence of memory references.

    Parameters
    ----------
    addresses:
        Byte addresses, any integer array-like.
    is_load:
        Per-reference load flag; scalar True when omitted.
    gaps:
        Per-reference instruction gaps; scalar default 3 when omitted
        (roughly one reference per 4 instructions, typical of SPEC95).
    name:
        Label for reports.
    """

    def __init__(
        self,
        addresses: Iterable[int],
        is_load: Iterable[bool] | None = None,
        gaps: Iterable[int] | None = None,
        name: str = "trace",
        pcs: Iterable[int] | None = None,
    ) -> None:
        self.addresses = np.asarray(addresses, dtype=np.int64)
        n = len(self.addresses)
        if is_load is None:
            self.is_load = np.ones(n, dtype=bool)
        else:
            self.is_load = np.asarray(is_load, dtype=bool)
        if gaps is None:
            self.gaps = np.full(n, 3, dtype=np.int16)
        else:
            self.gaps = np.asarray(gaps, dtype=np.int16)
        if pcs is None:
            self.pcs = np.zeros(n, dtype=np.int64)
        else:
            self.pcs = np.asarray(pcs, dtype=np.int64)
        if len(self.is_load) != n or len(self.gaps) != n or len(self.pcs) != n:
            raise ValueError(
                "addresses, is_load, gaps and pcs must have equal lengths "
                f"(got {n}, {len(self.is_load)}, {len(self.gaps)}, "
                f"{len(self.pcs)})"
            )
        if n and self.addresses.min() < 0:
            raise ValueError("addresses must be non-negative")
        if n and self.gaps.min() < 0:
            raise ValueError("gaps must be non-negative")
        self.name = name

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.addresses)

    def __iter__(self) -> Iterator[MemoryRef]:
        for addr, load, gap, pc in zip(
            self.addresses, self.is_load, self.gaps, self.pcs
        ):
            yield MemoryRef(
                address=int(addr), is_load=bool(load), gap=int(gap), pc=int(pc)
            )

    def __getitem__(self, item: slice) -> "Trace":
        if not isinstance(item, slice):
            raise TypeError("Trace supports slicing only; iterate for single refs")
        return Trace(
            self.addresses[item],
            self.is_load[item],
            self.gaps[item],
            name=self.name,
            pcs=self.pcs[item],
        )

    @property
    def total_instructions(self) -> int:
        """Memory references plus all gap instructions."""
        # gaps is deliberately int16 (3 bytes/ref saved on long traces);
        # the accumulator must not inherit that width — or the platform
        # default (int32 on 64-bit Windows), which wraps past ~2**31
        # total instructions.
        return int(self.gaps.sum(dtype=np.int64)) + len(self)

    def footprint_lines(self, line_size: int = 64) -> int:
        """Number of distinct cache lines the trace touches."""
        return len(np.unique(self.addresses >> int(np.log2(line_size))))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Trace {self.name!r}: {len(self)} refs>"


def merge_round_robin(traces: list[Trace], name: str = "merged") -> Trace:
    """Interleave traces reference-by-reference (uniform round-robin).

    The §5.6 shared-cache runs and the co-scheduling advisor use it; the
    richer weighted/chunked interleaving lives in
    :mod:`repro.workloads.mixes`.
    """
    if not traces:
        raise ValueError("need at least one trace")
    n = min(len(t) for t in traces)
    k = len(traces)
    addresses = np.empty(n * k, dtype=np.int64)
    is_load = np.empty(n * k, dtype=bool)
    gaps = np.empty(n * k, dtype=np.int16)
    pcs = np.empty(n * k, dtype=np.int64)
    for i, t in enumerate(traces):
        addresses[i::k] = t.addresses[:n]
        is_load[i::k] = t.is_load[:n]
        gaps[i::k] = t.gaps[:n]
        # Disambiguate identical PCs across the merged programs.
        pcs[i::k] = t.pcs[:n] + (i << 28)
    return Trace(addresses, is_load, gaps, name=name, pcs=pcs)

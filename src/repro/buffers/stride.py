"""Chen & Baer's Reference Prediction Table (RPT) stride prefetcher.

Section 5.2 of the paper: "We examined both a next-line prefetcher and a
stride predictor (results not shown here) based on Chen and Baer's
reference prediction table... However, for most of the benchmarks we use,
particularly the irregular applications, the simple next-line prefetcher
actually provides higher coverage of misses" — at the cost of many wasted
prefetches, which is what the MCT filtering then attacks.

We implement the RPT so that comparison can be reproduced (see
``compare_prefetchers`` and ``benchmarks/test_ablations.py``).  The RPT is
a PC-indexed table; each entry follows Chen & Baer's four-state machine:

    INITIAL   first sighting; record the address.
    TRANSIENT stride changed; record the new candidate stride.
    STEADY    stride confirmed twice; predictions are issued.
    NO_PRED   stride keeps changing; stand down until it stabilises.

Unlike the MCT (touched only on misses), the RPT is read and updated on
**every memory access** — the hardware-cost contrast the paper draws.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

from repro.cache.geometry import CacheGeometry
from repro.cache.set_assoc import SetAssociativeCache
from repro.workloads.trace import Trace


class RPTState(Enum):
    INITIAL = "initial"
    TRANSIENT = "transient"
    STEADY = "steady"
    NO_PRED = "no-pred"


@dataclass
class _RPTEntry:
    tag: int = -1
    last_addr: int = 0
    stride: int = 0
    state: RPTState = RPTState.INITIAL


class ReferencePredictionTable:
    """Direct-mapped, PC-indexed stride predictor.

    Parameters
    ----------
    entries:
        Table size (power of two).  Chen & Baer evaluate 512-entry tables;
        the default matches.

    The only public operation is :meth:`observe`, called with every
    (pc, address) pair in program order; it returns the predicted next
    address when the entry is STEADY, else None.
    """

    def __init__(self, entries: int = 512) -> None:
        if entries < 1 or entries & (entries - 1):
            raise ValueError(f"entries must be a power of two, got {entries}")
        self.entries = entries
        self._table = [_RPTEntry() for _ in range(entries)]
        self.observations = 0
        self.predictions = 0

    def observe(self, pc: int, addr: int) -> Optional[int]:
        """Record one access; returns a prefetch address or None."""
        self.observations += 1
        entry = self._table[(pc >> 2) & (self.entries - 1)]
        if entry.tag != pc:
            entry.tag = pc
            entry.last_addr = addr
            entry.stride = 0
            entry.state = RPTState.INITIAL
            return None

        new_stride = addr - entry.last_addr
        correct = new_stride == entry.stride

        if entry.state is RPTState.INITIAL:
            # First revisit: adopt the stride, move toward steady.
            entry.state = RPTState.STEADY if correct else RPTState.TRANSIENT
            entry.stride = new_stride
        elif entry.state is RPTState.STEADY:
            if not correct:
                entry.state = RPTState.INITIAL
        elif entry.state is RPTState.TRANSIENT:
            if correct:
                entry.state = RPTState.STEADY
            else:
                entry.stride = new_stride
                entry.state = RPTState.NO_PRED
        else:  # NO_PRED
            if correct:
                entry.state = RPTState.TRANSIENT
            else:
                entry.stride = new_stride

        entry.last_addr = addr
        if entry.state is RPTState.STEADY and entry.stride != 0:
            self.predictions += 1
            return addr + entry.stride
        return None

    def state_of(self, pc: int) -> Optional[RPTState]:
        entry = self._table[(pc >> 2) & (self.entries - 1)]
        return entry.state if entry.tag == pc else None


def line_prediction(addr: int, stride: int, line_size: int = 64) -> int:
    """Advance a stride prediction to the first address on a NEW line.

    A word-granular stride (e.g. 8 bytes) predicts an address on the line
    just referenced, which is useless to prefetch; Chen & Baer solve this
    with a lookahead distance.  We run the stride forward to the first
    iteration that leaves the current line — the smallest lookahead that
    fetches new data.
    """
    if stride == 0:
        return addr
    k = 1
    base_line = addr // line_size
    while (addr + k * stride) // line_size == base_line and k < line_size:
        k += 1
    return addr + k * stride


@dataclass
class PrefetcherComparison:
    """Coverage/accuracy of next-line vs RPT on one trace (paper §5.2)."""

    next_line_coverage: float
    next_line_accuracy: float
    rpt_coverage: float
    rpt_accuracy: float
    misses: int = 0


def _evaluate(
    trace: Trace,
    geometry: CacheGeometry,
    *,
    use_rpt: bool,
    buffer_entries: int = 8,
) -> tuple[float, float, int]:
    """Coverage and accuracy of one prefetcher over a trace.

    Uses a functional cache + small FIFO prefetch buffer (no timing): on a
    miss that hits the prefetch buffer, the line moves into the cache.
    Returns (coverage%, accuracy%, misses).
    """
    from collections import OrderedDict

    cache = SetAssociativeCache(geometry)
    rpt = ReferencePredictionTable() if use_rpt else None
    buffer: "OrderedDict[int, bool]" = OrderedDict()  # block -> used
    issued = used = wasted = misses = covered = 0

    def insert(block: int) -> None:
        nonlocal issued, wasted
        if block in buffer or cache.probe(block * geometry.line_size):
            return
        if len(buffer) >= buffer_entries:
            _, was_used = buffer.popitem(last=False)
            if not was_used:
                wasted += 1
        buffer[block] = False
        issued += 1

    for addr, pc in zip(trace.addresses, trace.pcs):
        addr = int(addr)
        out = cache.lookup(addr)
        prediction: Optional[int] = None
        if rpt is not None:
            prediction = rpt.observe(int(pc), addr)
        if not out.hit:
            misses += 1
            block = geometry.block_number(addr)
            if block in buffer:
                covered += 1
                if not buffer[block]:
                    used += 1
                del buffer[block]
                cache.fill(addr)
                if rpt is None:
                    insert(block + 1)
            else:
                cache.fill(addr)
                if rpt is None:
                    insert(block + 1)
        if prediction is not None:
            # Run the stride forward to the first new line (lookahead).
            target = line_prediction(addr, prediction - addr, geometry.line_size)
            if not cache.probe(target):
                insert(geometry.block_number(target))

    coverage = 100.0 * covered / misses if misses else 0.0
    accuracy = 100.0 * used / issued if issued else 0.0
    return coverage, accuracy, misses


def compare_prefetchers(
    trace: Trace, geometry: CacheGeometry, *, buffer_entries: int = 8
) -> PrefetcherComparison:
    """Reproduce §5.2's (unshown) comparison on one trace.

    Expected shape on the irregular analogs: next-line has the higher
    coverage, the RPT the higher accuracy.
    """
    nl_cov, nl_acc, misses = _evaluate(
        trace, geometry, use_rpt=False, buffer_entries=buffer_entries
    )
    rpt_cov, rpt_acc, _ = _evaluate(
        trace, geometry, use_rpt=True, buffer_entries=buffer_entries
    )
    return PrefetcherComparison(
        next_line_coverage=nl_cov,
        next_line_accuracy=nl_acc,
        rpt_coverage=rpt_cov,
        rpt_accuracy=rpt_acc,
        misses=misses,
    )

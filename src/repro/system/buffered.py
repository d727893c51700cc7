"""Buffered cells on the fast engine: one replay over flat per-set state.

Every Section-5 preset (victim caches, filtered prefetching, exclusion,
the AMB) puts an assist buffer beside the paper's direct-mapped L1.  The
buffer is fully associative across sets, and its decisions feed back
into the L1 and the MCT: a bypass leaves the L1 set as it was and
installs the missing tag in the MCT, and an unswapped victim hit leaves
the L1 untouched.  So no numpy pass can tell in advance which
references hit (:func:`repro.system.vector.l1_pass` assumes every miss
fills), and a buffered cell is replayed reference by reference instead,
but over flat per-set state rather than the scalar engine's per-line
objects:

* the L1 and its MCT: per-set lists of the resident block (-1 = empty),
  its dirty and conflict bits, and the MCT's stored tag (-1 = empty).
  The buffer is consulted only on L1 misses, so a hit is one list
  compare;
* the L2: one MRU-first list of blocks per set, built on first touch;
* the buffer: an ``OrderedDict`` from block to a small mutable record,
  LRU first;
* the MAT and the history table: int lists of region tags and counters,
  shaped by :class:`~repro.buffers.mat.MemoryAccessTable`'s and
  :class:`~repro.buffers.history.MissHistoryTable`'s own defaults;
* timing: :class:`~repro.system.timing.TimingModel`'s arithmetic inline
  and in its order, with the buffer ports, L1 banks, short operations
  and prefetch MSHRs the bufferless replay
  (:func:`repro.system.vector._replay_timing`) never needs.

The statistics are byte-identical to the scalar
:class:`~repro.system.memory_system.MemorySystem`'s, which stays the
reference that defines them.  :class:`BufferedReplay` advances in
resumable chunks, so :func:`repro.system.simulator.drive` runs its
warmup, measurement reset, heartbeats and ``sim_tick`` hits exactly as
it does for the scalar engine.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from itertools import islice
from typing import Deque, Iterator, List, Optional, Tuple

import numpy as np

from repro.buffers.history import MissHistoryTable
from repro.buffers.mat import MemoryAccessTable
from repro.cache.stats import SystemStats, TimingStats
from repro.core.classification import MissClass
from repro.core.filters import ConflictFilter
from repro.system.config import MachineConfig
from repro.system.policies import AssistConfig, ExclusionMode
from repro.system.simulator import drive
from repro.system.vector import mct_tag_mask
from repro.workloads.trace import Trace

# A buffer record is [role, conflict bit, dirty, ready time].
_VICTIM, _PREFETCH, _EXCLUSION = 0, 1, 2
_READY = 3


def _filter_table(
    filt: Optional[ConflictFilter],
) -> Optional[Tuple[Tuple[bool, ...], ...]]:
    """``filt.matches`` as ``table[new_is_conflict][evicted_conflict_bit]``."""
    if filt is None:
        return None
    return tuple(
        tuple(
            filt.matches(new_is_conflict=new, evicted_conflict_bit=bit)
            for bit in (False, True)
        )
        for new in (False, True)
    )


class BufferedReplay:
    """One buffered cell on a direct-mapped L1, replayed in chunks.

    Offers what :func:`~repro.system.simulator.drive` needs: the live
    ``stats``, :meth:`advance`, :meth:`reset_measurement` and
    :meth:`finish`, each with the scalar ``MemorySystem``'s semantics.
    """

    def __init__(
        self, trace: Trace, policy: AssistConfig, machine: MachineConfig
    ) -> None:
        if machine.l1.assoc != 1:
            raise ValueError(
                f"the buffered replay models a direct-mapped L1, not a "
                f"{machine.l1.assoc}-way one"
            )
        self.policy = policy
        self.machine = machine
        self.stats = SystemStats()
        mask = mct_tag_mask(policy.mct_tag_bits)
        self._tag_mask = -1 if mask is None else mask
        timing = machine.timing
        issued = trace.gaps.astype(np.int64) + 1
        incs = issued.astype(np.float64) / timing.issue_rate
        self._refs: Iterator[Tuple[int, bool, float, int]] = zip(
            trace.addresses.tolist(),
            np.logical_not(trace.is_load).tolist(),
            incs.tolist(),
            issued.tolist(),
        )

        sets = machine.l1.num_sets
        self._resident: List[int] = [-1] * sets
        self._dirty: List[bool] = [False] * sets
        self._conflict_bit: List[bool] = [False] * sets
        self._mct: List[int] = [-1] * sets
        self._l2: List[Optional[List[int]]] = [None] * machine.l2.num_sets
        self._l2_set_mask = machine.l2.num_sets - 1
        self._l2_latency = float(timing.l2_latency)
        self._memory_latency = float(timing.memory_latency)
        self._buffer: "OrderedDict[int, list]" = OrderedDict()

        # The MAT (touched on every access) or the history table
        # (touched on every miss): region tags and counters.
        self._mat: Optional[MemoryAccessTable] = None
        self._history: Optional[MissHistoryTable] = None
        table = None
        if policy.exclusion is ExclusionMode.MAT:
            table = self._mat = MemoryAccessTable()
        elif policy.exclusion is ExclusionMode.CAPACITY_HISTORY:
            table = self._history = MissHistoryTable(MissClass.CAPACITY)
        elif policy.exclusion is ExclusionMode.CONFLICT_HISTORY:
            table = self._history = MissHistoryTable(MissClass.CONFLICT)
        self._region_tags: List[int] = []
        self._region_counts: List[int] = []
        if table is not None:
            self._region_tags = [-1] * table.entries
            self._region_counts = [0] * table.entries

        # TimingModel's state: (clock, instructions, stall, contention,
        # bus free, buffer free, MSHRs held by demand misses), the
        # in-flight (issue instructions, completion, holds an MSHR)
        # operations, prefetch completions and per-bank free times.
        self._timing = (0.0, 0, 0.0, 0.0, 0.0, 0.0, 0)
        self._pending: Deque[Tuple[int, float, bool]] = deque()
        self._prefetches: List[float] = []
        self._bank_free = [0.0] * timing.n_banks

    # ------------------------------------------------------------------
    def reset_measurement(self) -> None:
        """Zero every counter and the timing state; keep the caches, MCT,
        buffer and tables warm, as ``MemorySystem.reset_measurement``."""
        self.stats.reset()
        for record in self._buffer.values():
            record[_READY] = 0.0
        self._timing = (0.0, 0, 0.0, 0.0, 0.0, 0.0, 0)
        self._pending = deque()
        self._prefetches = []
        self._bank_free = [0.0] * self.machine.timing.n_banks

    def finish(self) -> SystemStats:
        """FIFO-drain what is in flight and publish the timing."""
        clock, instructions, stall, contention = self._timing[:4]
        for _, completion, _ in self._pending:
            if completion > clock:
                stall += completion - clock
                clock = completion
        stats = self.stats
        stats.timing = TimingStats(
            cycles=clock,
            instructions=instructions,
            memory_refs=stats.l1.accesses,
            stall_cycles=stall,
            contention_cycles=contention,
        )
        from repro.harness.invariants import check_system_stats

        check_system_stats(stats, issue_rate=self.machine.timing.issue_rate)
        return stats

    # ------------------------------------------------------------------
    def _fetch(self, block: int) -> float:
        """One L2 access (LRU, MRU first); returns the line's latency."""
        stats = self.stats
        l2s = stats.l2
        l2s.accesses += 1
        index = block & self._l2_set_mask
        ways = self._l2[index]
        if ways is None:
            ways = self._l2[index] = []
        elif block in ways:
            l2s.hits += 1
            if ways[0] != block:
                ways.remove(block)
                ways.insert(0, block)
            return self._l2_latency
        l2s.misses += 1
        l2s.fills += 1
        if len(ways) == self.machine.l2.assoc:
            ways.pop()
            l2s.evictions += 1
        ways.insert(0, block)
        stats.memory_accesses += 1
        return self._memory_latency

    def _insert(self, block: int, record: list) -> None:
        """Add ``record`` at MRU, evicting the LRU entry when full.

        The L1 and the buffer never hold the same block (every line
        enters the buffer after missing both), so ``block`` is never
        resident already.  A prefetch leaves the buffer on its first
        hit, so every prefetch entry evicted here was never used.
        """
        buffer = self._buffer
        if len(buffer) >= self.policy.buffer_entries:
            _, evicted = buffer.popitem(last=False)
            stats = self.stats.buffer
            stats.evictions += 1
            if evicted[0] == _PREFETCH:
                stats.prefetches_wasted += 1
        buffer[block] = record

    # ------------------------------------------------------------------
    def advance(self, count: int) -> None:
        """Replay the trace's next ``count`` references."""
        policy = self.policy
        machine = self.machine
        config = machine.timing
        geometry = machine.l1
        stats = self.stats
        l1s = stats.l1
        bufs = stats.buffer
        offset_bits = geometry.offset_bits
        index_bits = geometry.index_bits
        set_mask = geometry.num_sets - 1
        tag_mask = self._tag_mask
        resident = self._resident
        dirty = self._dirty
        conflict_bit = self._conflict_bit
        mct = self._mct
        buffer = self._buffer
        fetch = self._fetch
        insert = self._insert

        victim_fills = policy.victim_fills
        victim_swap = policy.victim_swap
        fill_filter = _filter_table(policy.victim_fill_filter)
        no_swap_filter = _filter_table(policy.victim_no_swap_filter)
        prefetch = policy.prefetch
        prefetch_filter = _filter_table(policy.prefetch_filter)
        exclusion = policy.exclusion
        install_on_bypass = policy.mct_install_on_bypass
        mat = self._mat
        history = self._history
        table = mat if mat is not None else history
        region_shift = region_mask = max_count = threshold = 0
        if table is not None:
            region_shift = table.region_size.bit_length() - 1
            region_mask = table.entries - 1
            max_count = table.max_count
        if history is not None:
            threshold = history.threshold
        region_tags = self._region_tags
        region_counts = self._region_counts
        history_tracks_conflict = (
            history is not None and history.tracked is MissClass.CONFLICT
        )

        window = config.rob_window
        mshrs = config.mshrs
        bus_cycles = config.bus_transfer_cycles
        n_banks = config.n_banks
        swap_busy = config.swap_busy_cycles
        buffer_busy = config.buffer_busy_cycles
        buffer_latency = config.buffer_latency
        bank_free = self._bank_free
        pending = self._pending
        prefetches = self._prefetches
        (clock, instructions, stall, contention, bus_free, buffer_free,
         mshrs_busy) = self._timing

        for addr, write, inc, issued in islice(self._refs, count):
            # TimingModel.step: advance past the gap and this reference,
            # then retire what completed or has left the window.
            clock += inc
            instructions += issued
            while pending:
                head = pending[0]
                if head[1] <= clock:
                    pass
                elif instructions - head[0] > window:
                    stall += head[1] - clock
                    clock = head[1]
                else:
                    break
                pending.popleft()
                if head[2]:
                    mshrs_busy -= 1
            if mat is not None:
                region = addr >> region_shift
                slot = region & region_mask
                if region_tags[slot] != region:
                    # A new region inherits half the old count.
                    region_tags[slot] = region
                    region_counts[slot] //= 2
                if region_counts[slot] < max_count:
                    region_counts[slot] += 1

            block = addr >> offset_bits
            s = block & set_mask
            if resident[s] == block:
                if write:
                    dirty[s] = True
                continue

            # An L1 miss, classified before its fill perturbs the MCT.
            l1s.misses += 1
            key = (block >> index_bits) & tag_mask
            is_conflict = mct[s] == key
            if is_conflict:
                stats.conflict_misses_predicted += 1
            else:
                stats.capacity_misses_predicted += 1
            if history is not None:
                region = addr >> region_shift
                slot = region & region_mask
                if region_tags[slot] != region:
                    region_tags[slot] = region
                    region_counts[slot] = 0
                if is_conflict == history_tracks_conflict:
                    if region_counts[slot] < max_count:
                        region_counts[slot] += 1
                elif region_counts[slot] > 0:
                    region_counts[slot] -= 1

            bufs.probes += 1
            record = buffer.get(block)
            swapped = promoted = False
            if record is None:
                # Full miss: the L2 access and the bus, then an MSHR.
                latency = fetch(block)
                start = bus_free if bus_free > clock else clock
                if start > clock:
                    contention += start - clock
                bus_free = start + bus_cycles
                if prefetches:
                    prefetches = [c for c in prefetches if c > clock]
                if mshrs_busy + len(prefetches) >= mshrs:
                    # Stall to the earliest completion, then sweep.
                    earliest = min(
                        [e[1] for e in pending if e[2]] + prefetches
                    )
                    if earliest > clock:
                        stall += earliest - clock
                        clock = earliest
                    kept: Deque[Tuple[int, float, bool]] = deque()
                    for entry in pending:
                        if entry[1] > clock:
                            kept.append(entry)
                        elif entry[2]:
                            mshrs_busy -= 1
                    pending = kept
                    prefetches = [c for c in prefetches if c > clock]
                begin = start if start > clock else clock
                pending.append((instructions, begin + latency, True))
                mshrs_busy += 1

                if exclusion is None:
                    bypass = False
                elif exclusion is ExclusionMode.CAPACITY:
                    bypass = not is_conflict
                elif exclusion is ExclusionMode.CONFLICT:
                    bypass = is_conflict
                elif mat is not None:
                    # Johnson & Hwu: bypass when the incoming region is
                    # strictly colder than the would-be victim's.
                    victim = resident[s]
                    bypass = False
                    if victim >= 0:
                        region = addr >> region_shift
                        slot = region & region_mask
                        mine = region_counts[slot] if region_tags[slot] == region else 0
                        region = (victim << offset_bits) >> region_shift
                        slot = region & region_mask
                        theirs = region_counts[slot] if region_tags[slot] == region else 0
                        bypass = mine < theirs
                else:
                    region = addr >> region_shift
                    slot = region & region_mask
                    bypass = (
                        region_tags[slot] == region
                        and region_counts[slot] >= threshold
                    )
                if bypass:
                    insert(block, [_EXCLUSION, is_conflict, write, 0.0])
                    bufs.fills += 1
                    start = buffer_free if buffer_free > clock else clock
                    if start > clock:
                        contention += start - clock
                    buffer_free = start + swap_busy
                    if install_on_bypass:
                        mct[s] = key
                fill_bit = is_conflict
                fill_dirty = write
            else:
                # Buffer hit: a port for a cycle, data after the buffer
                # latency (or the prefetch's arrival), retired as a short
                # operation.
                bufs.hits += 1
                start = buffer_free if buffer_free > clock else clock
                if start > clock:
                    contention += start - clock
                buffer_free = start + buffer_busy
                ready = start + buffer_latency
                if record[_READY] > ready:
                    ready = record[_READY]
                if ready > clock:
                    pending.append((instructions, ready, False))
                if write:
                    record[2] = True
                role = record[0]
                if role == _VICTIM:
                    bufs.victim_hits += 1
                    swap = victim_swap
                    if swap and no_swap_filter is not None:
                        # An empty set's bit is False, as for no victim.
                        swap = not no_swap_filter[is_conflict][conflict_bit[s]]
                    if not swap:
                        buffer.move_to_end(block)
                        continue
                    # Swap: bank and buffer busy for the line move.
                    bufs.swaps += 1
                    bank = s % n_banks
                    start = bank_free[bank] if bank_free[bank] > clock else clock
                    if start > clock:
                        contention += start - clock
                    bank_free[bank] = start + swap_busy
                    start = buffer_free if buffer_free > clock else clock
                    if start > clock:
                        contention += start - clock
                    buffer_free = start + swap_busy
                    del buffer[block]
                    swapped = True
                    fill_bit = record[1]
                elif role == _PREFETCH:
                    bufs.prefetch_hits += 1
                    bufs.prefetches_used += 1
                    del buffer[block]
                    promoted = True
                    fill_bit = is_conflict
                else:
                    bufs.exclusion_hits += 1
                    buffer.move_to_end(block)
                    continue
                fill_dirty = record[2]
                bypass = False

            evicted_bit = False
            if not bypass:
                # Fill the L1; the MCT remembers the victim's tag.
                victim = resident[s]
                if victim >= 0:
                    victim_dirty = dirty[s]
                    evicted_bit = conflict_bit[s]
                    l1s.evictions += 1
                    if victim_dirty:
                        l1s.writebacks += 1
                    mct[s] = (victim >> index_bits) & tag_mask
                resident[s] = block
                dirty[s] = fill_dirty
                conflict_bit[s] = fill_bit
                l1s.fills += 1
                if victim >= 0:
                    if swapped:
                        insert(victim, [_VICTIM, evicted_bit, victim_dirty, 0.0])
                    elif victim_fills and (
                        fill_filter is None or fill_filter[is_conflict][evicted_bit]
                    ):
                        insert(victim, [_VICTIM, evicted_bit, victim_dirty, 0.0])
                        bufs.fills += 1
                        start = buffer_free if buffer_free > clock else clock
                        if start > clock:
                            contention += start - clock
                        buffer_free = start + swap_busy
                if swapped:
                    continue

            # Next-line prefetch: unconditional after a prefetch hit,
            # else unless the filter calls the miss a conflict event.
            if prefetch and (
                promoted
                or prefetch_filter is None
                or not prefetch_filter[is_conflict][evicted_bit]
            ):
                nxt = block + 1
                if resident[nxt & set_mask] != nxt and nxt not in buffer:
                    if prefetches:
                        prefetches = [c for c in prefetches if c > clock]
                    if mshrs_busy + len(prefetches) >= mshrs:
                        bufs.prefetches_discarded += 1
                    else:
                        latency = fetch(nxt)
                        start = bus_free if bus_free > clock else clock
                        if start > clock:
                            contention += start - clock
                        bus_free = start + bus_cycles
                        begin = start if start > clock else clock
                        prefetches.append(begin + latency)
                        insert(nxt, [_PREFETCH, is_conflict, False, begin + latency])
                        bufs.prefetches_issued += 1

        l1s.accesses += count
        l1s.hits = l1s.accesses - l1s.misses
        self._pending = pending
        self._prefetches = prefetches
        self._timing = (clock, instructions, stall, contention, bus_free,
                        buffer_free, mshrs_busy)


def simulate_buffered(
    trace: Trace,
    policy: AssistConfig,
    machine: MachineConfig,
    *,
    warmup: int = 0,
) -> SystemStats:
    """One buffered cell with a direct-mapped L1, byte-identical to the
    scalar engine (callers go through
    :func:`repro.system.vector.simulate_vector`)."""
    replay = BufferedReplay(trace, policy, machine)
    return drive(replay, trace, policy=policy.name, warmup=warmup, advance=replay.advance)

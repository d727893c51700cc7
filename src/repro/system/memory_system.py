"""The simulated memory system: L1 + MCT + assist buffer + L2 + memory.

This is the reference engine that defines every Section-5 experiment's
statistics (the fast engine's buffered replay,
:mod:`repro.system.buffered`, reproduces them byte for byte).  One
:class:`MemorySystem` wires together:

* the L1 data cache (16KB direct-mapped by default),
* the Miss Classification Table attached to its eviction stream,
* one :class:`~repro.buffers.assist.AssistBuffer` playing victim /
  prefetch / bypass roles as the :class:`~repro.system.policies.AssistConfig`
  dictates,
* the L2 cache and main-memory latencies, with bus/bank/port contention
  through :class:`~repro.system.timing.TimingModel`.

Per-access flow (paper Section 3-5):

1. L1 lookup; a hit is one cycle and we are done.
2. On an L1 miss the MCT classifies the miss (conflict vs capacity) —
   off the critical path, used only after the assist structures answer.
3. The assist buffer is probed (+1 cycle).  A hit is handled per the
   entry's role: victim entries may swap back into L1 (or not, under the
   no-swap filter), prefetch entries move into L1 and trigger the next
   prefetch, exclusion entries serve the data and stay put.
4. A full miss goes to L2 (and perhaps memory).  The exclusion policy may
   *bypass* L1, placing the line in the buffer instead; otherwise the line
   fills L1 and the displaced victim may enter the buffer under the
   victim-fill filter.  Finally the next line may be prefetched, subject
   to the prefetch filter and MSHR availability.
"""

from __future__ import annotations

from typing import Optional

from repro.buffers.assist import AssistBuffer, BufferEntry
from repro.buffers.history import MissHistoryTable
from repro.buffers.mat import MemoryAccessTable
from repro.cache.line import BufferRole, EvictedLine
from repro.cache.set_assoc import SetAssociativeCache
from repro.cache.stats import SystemStats
from repro.core.classification import MissClass
from repro.core.mct import MissClassificationTable
from repro.system.config import MachineConfig, PAPER_MACHINE
from repro.system.policies import AssistConfig, ExclusionMode
from repro.system.timing import TimingModel


class MemorySystem:
    """A complete, policy-configurable data-memory hierarchy."""

    def __init__(
        self,
        policy: AssistConfig,
        machine: MachineConfig = PAPER_MACHINE,
    ) -> None:
        self.policy = policy
        self.machine = machine
        self.stats = SystemStats()

        self.mct = MissClassificationTable(machine.l1, tag_bits=policy.mct_tag_bits)
        self.l1 = SetAssociativeCache(machine.l1, name="L1D", on_evict=self.mct.on_evict)
        self.l2 = SetAssociativeCache(machine.l2, name="L2")
        self.timing = TimingModel(machine.timing)
        # Share the caches' own counter objects so nothing is counted twice.
        self.stats.l1 = self.l1.stats
        self.stats.l2 = self.l2.stats

        self.buffer: Optional[AssistBuffer] = None
        if policy.uses_buffer:
            self.buffer = AssistBuffer(
                entries=policy.buffer_entries, on_evict=self._on_buffer_evict
            )
            self.stats.buffer = self.buffer.stats

        self.mat: Optional[MemoryAccessTable] = None
        self.history: Optional[MissHistoryTable] = None
        if policy.exclusion is ExclusionMode.MAT:
            self.mat = MemoryAccessTable()
        elif policy.exclusion is ExclusionMode.CAPACITY_HISTORY:
            self.history = MissHistoryTable(MissClass.CAPACITY)
        elif policy.exclusion is ExclusionMode.CONFLICT_HISTORY:
            self.history = MissHistoryTable(MissClass.CONFLICT)

        # Bound-method fast paths for :meth:`access`, the per-reference
        # hot loop: none of these collaborators is ever reassigned, so the
        # attribute chains are resolved once here instead of per access.
        self._timing_step = self.timing.step
        self._l1_lookup = self.l1.lookup
        self._mct_classify = self.mct.classify
        self._l1_block_number = self.machine.l1.block_number
        self._buffer_probe = self.buffer.probe if self.buffer is not None else None

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def access(self, addr: int, *, is_load: bool = True, gap: int = 3) -> None:
        """Simulate one data reference."""
        self._timing_step(gap)
        if self.mat is not None:
            self.mat.record_access(addr)

        outcome = self._l1_lookup(addr, write=not is_load)
        if outcome.hit:
            return

        # Classify the miss before this miss's own fill perturbs the MCT.
        miss_class = self._mct_classify(addr)
        is_conflict = miss_class.is_conflict
        stats = self.stats
        if is_conflict:
            stats.conflict_misses_predicted += 1
        else:
            stats.capacity_misses_predicted += 1
        if self.history is not None:
            self.history.record_miss(addr, miss_class)

        probe = self._buffer_probe
        if probe is not None:
            entry = probe(self._l1_block_number(addr))
            if entry is not None:
                self._buffer_hit(addr, entry, is_conflict, is_load)
                return

        self._full_miss(addr, is_conflict, is_load)

    def reset_measurement(self) -> None:
        """Start measuring from here: keep all cache/buffer/MCT contents
        warm but zero every statistic and the cycle clock.

        This mirrors the paper's methodology of skipping the first billion
        instructions before measuring: short synthetic traces would
        otherwise be dominated by the compulsory cold-start transient.
        ``self.stats`` holds the caches' and buffer's own counter
        objects, so its one fields()-driven reset zeroes all of them.
        """
        self.stats.reset()
        if self.buffer is not None:
            # The clock restarts at zero: in-flight prefetches from the
            # warmup period count as long since arrived.
            for entry in self.buffer._entries.values():
                entry.ready_time = 0.0
        self.timing.reset_measurement()

    def finish(self) -> SystemStats:
        """Drain the pipeline and collect final statistics.

        Prefetches still sitting unconsumed in the buffer are left
        uncounted, matching the paper's definition of a wasted prefetch
        (lost from the buffer before use) — the run simply ended.

        The final statistics are validated against the conservation laws
        of :mod:`repro.harness.invariants` before being returned.
        """
        self.stats.timing = self.timing.finish()
        # Imported on first use: importing repro.harness at module level
        # would add ~9 ms to every ``import repro``.
        from repro.harness.invariants import check_system_stats

        check_system_stats(self.stats, issue_rate=self.machine.timing.issue_rate)
        return self.stats

    # ------------------------------------------------------------------
    # Buffer-hit handling (per role)
    # ------------------------------------------------------------------
    def _buffer_hit(
        self, addr: int, entry: BufferEntry, is_conflict: bool, is_load: bool
    ) -> None:
        assert self.buffer is not None
        timing = self.timing
        stats = self.stats.buffer
        stats.hits += 1

        start = timing.occupy_buffer(self.machine.timing.buffer_busy_cycles)
        data_ready = max(start + self.machine.timing.buffer_latency, entry.ready_time)
        timing.note_short_op(data_ready)
        if not is_load:
            entry.dirty = True

        if entry.role is BufferRole.VICTIM:
            stats.victim_hits += 1
            self._victim_hit(addr, entry, is_conflict)
        elif entry.role is BufferRole.PREFETCH:
            stats.prefetch_hits += 1
            if not entry.used:
                entry.used = True
                stats.prefetches_used += 1
            self._promote_to_l1(addr, entry, is_conflict)
            self._maybe_prefetch(addr, is_conflict, evicted_bit=False, on_hit=True)
        else:  # EXCLUSION: the line lives in the buffer until bumped out.
            stats.exclusion_hits += 1
            self.buffer.touch(entry.block)

    def _victim_hit(self, addr: int, entry: BufferEntry, is_conflict: bool) -> None:
        """A hit on a victim-cached line: swap back into L1, or not."""
        assert self.buffer is not None
        cfg = self.policy
        do_swap = cfg.victim_swap
        if do_swap and cfg.victim_no_swap_filter is not None:
            preview = self.l1.victim_preview(addr)
            evicted_bit = preview.conflict_bit if preview is not None else False
            if cfg.victim_no_swap_filter.matches(
                new_is_conflict=is_conflict, evicted_conflict_bit=evicted_bit
            ):
                do_swap = False
        if not do_swap:
            # Serve the data from the buffer; refresh its recency (the
            # LRU organisation the paper adopts once swaps are filtered).
            self.buffer.touch(entry.block)
            return

        # Swap: the buffer line moves into L1 and the displaced L1 line
        # becomes the newest buffer entry.  Both structures are busy for
        # two cycles (this cost is what "filter swaps" eliminates).
        self.stats.buffer.swaps += 1
        t = self.machine.timing
        bank = self.machine.l1.set_index(addr) % t.n_banks
        self.timing.occupy_bank(bank, t.swap_busy_cycles)
        self.timing.occupy_buffer(t.swap_busy_cycles)

        self.buffer.remove(entry.block)
        evicted = self.l1.fill(
            addr, conflict_bit=entry.conflict_bit, dirty=entry.dirty
        ).evicted
        if evicted is not None:
            self._insert_buffer_line(addr, evicted, BufferRole.VICTIM)

    def _promote_to_l1(self, addr: int, entry: BufferEntry, is_conflict: bool) -> None:
        """Move a prefetched line into L1 (paper §5.2: on a prefetch-buffer
        hit "the line is moved into the cache")."""
        assert self.buffer is not None
        self.buffer.remove(entry.block)
        if self.l1.probe(addr):  # pragma: no cover - defensive; cannot both miss and hold
            return
        evicted = self.l1.fill(addr, conflict_bit=is_conflict, dirty=entry.dirty).evicted
        self._maybe_victim_fill(addr, evicted, is_conflict)

    # ------------------------------------------------------------------
    # Full-miss handling
    # ------------------------------------------------------------------
    def _full_miss(self, addr: int, is_conflict: bool, is_load: bool) -> None:
        latency, bus_start = self._fetch_line(addr)
        self.timing.issue_miss(latency, start=bus_start)

        if self._should_bypass(addr, is_conflict):
            self._bypass_into_buffer(addr, is_conflict, is_load)
            evicted_bit = False
            evicted = None
        else:
            evicted = self.l1.fill(
                addr, conflict_bit=is_conflict, dirty=not is_load
            ).evicted
            evicted_bit = evicted.conflict_bit if evicted is not None else False
            self._maybe_victim_fill(addr, evicted, is_conflict)

        self._maybe_prefetch(addr, is_conflict, evicted_bit=evicted_bit, on_hit=False)

    def _fetch_line(self, addr: int) -> tuple[float, float]:
        """Bring a line from L2/memory: returns (latency, transfer start)."""
        t = self.machine.timing
        l2_outcome = self.l2.access(addr)
        if l2_outcome.hit:
            latency = float(t.l2_latency)
        else:
            self.stats.memory_accesses += 1
            latency = float(t.memory_latency)
        bus_start = self.timing.acquire_bus(self.timing.clock)
        return latency, bus_start

    def _should_bypass(self, addr: int, is_conflict: bool) -> bool:
        mode = self.policy.exclusion
        if mode is None:
            return False
        if mode is ExclusionMode.CAPACITY:
            return not is_conflict
        if mode is ExclusionMode.CONFLICT:
            return is_conflict
        if mode is ExclusionMode.MAT:
            assert self.mat is not None
            preview = self.l1.victim_preview(addr)
            victim_addr = None
            if preview is not None:
                victim_addr = self.machine.l1.compose(
                    preview.tag, self.machine.l1.set_index(addr)
                )
            return self.mat.should_bypass(addr, victim_addr)
        assert self.history is not None
        return self.history.is_flagged(addr)

    def _bypass_into_buffer(self, addr: int, is_conflict: bool, is_load: bool) -> None:
        """§5.3: route an excluded line into the bypass buffer, and install
        its tag in the MCT so a future miss to it can classify as conflict."""
        assert self.buffer is not None
        block = self.machine.l1.block_number(addr)
        self.buffer.insert(
            BufferEntry(
                block=block,
                role=BufferRole.EXCLUSION,
                conflict_bit=is_conflict,
                dirty=not is_load,
            )
        )
        self.stats.buffer.fills += 1
        self.timing.occupy_buffer(self.machine.timing.swap_busy_cycles)
        if self.policy.mct_install_on_bypass:
            self.mct.install(addr)

    def _maybe_victim_fill(
        self, addr: int, evicted: Optional[EvictedLine], is_conflict: bool
    ) -> None:
        if not self.policy.victim_fills or evicted is None or self.buffer is None:
            return
        filt = self.policy.victim_fill_filter
        if filt is not None and not filt.matches(
            new_is_conflict=is_conflict, evicted_conflict_bit=evicted.conflict_bit
        ):
            return
        self._insert_buffer_line(addr, evicted, BufferRole.VICTIM)
        self.stats.buffer.fills += 1
        self.timing.occupy_buffer(self.machine.timing.swap_busy_cycles)

    def _insert_buffer_line(
        self, addr: int, evicted: EvictedLine, role: BufferRole
    ) -> None:
        assert self.buffer is not None
        geo = self.machine.l1
        victim_addr = geo.compose(evicted.tag, geo.set_index(addr))
        self.buffer.insert(
            BufferEntry(
                block=geo.block_number(victim_addr),
                role=role,
                conflict_bit=evicted.conflict_bit,
                dirty=evicted.dirty,
            )
        )

    # ------------------------------------------------------------------
    # Prefetching
    # ------------------------------------------------------------------
    def _maybe_prefetch(
        self, addr: int, is_conflict: bool, *, evicted_bit: bool, on_hit: bool
    ) -> None:
        """Next-line prefetch (§5.2), subject to the conflict filter.

        On prefetch-buffer hits the next line is prefetched
        unconditionally ("the line is moved into the cache and the next
        line is prefetched"); on ordinary misses the configured filter may
        suppress it.
        """
        if not self.policy.prefetch or self.buffer is None:
            return
        if not on_hit:
            filt = self.policy.prefetch_filter
            if filt is not None and filt.matches(
                new_is_conflict=is_conflict, evicted_conflict_bit=evicted_bit
            ):
                return
        nl = self.machine.l1.next_line(addr)
        block = self.machine.l1.block_number(nl)
        if self.l1.probe(nl) or block in self.buffer:
            return
        if not self.timing.mshr_available():
            self.stats.buffer.prefetches_discarded += 1
            return
        latency, bus_start = self._fetch_line(nl)
        completion = self.timing.issue_prefetch(latency, start=bus_start)
        if completion is None:  # pragma: no cover - raced the check above
            self.stats.buffer.prefetches_discarded += 1
            return
        self.buffer.insert(
            BufferEntry(
                block=block,
                role=BufferRole.PREFETCH,
                conflict_bit=is_conflict,
                ready_time=completion,
            )
        )
        self.stats.buffer.prefetches_issued += 1

    # ------------------------------------------------------------------
    def _on_buffer_evict(self, entry: BufferEntry) -> None:
        if entry.role is BufferRole.PREFETCH and not entry.used:
            self.stats.buffer.prefetches_wasted += 1

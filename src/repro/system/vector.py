"""Set-partitioned, vectorised simulation engine.

The scalar engine (:mod:`repro.system.memory_system` driven by
:func:`repro.system.simulator.simulate`) walks the trace one reference at
a time through live cache objects — flexible, but ~30 Python operations
per reference.  This module prices the same run as a handful of numpy
array passes plus a short Python replay that only touches misses, by
exploiting the same per-set independence the paper's MCT does: in a
set-indexed cache, references to different sets never interact except
through *timing* (bus, MSHRs, the retirement window).

The engine is exact, not approximate: for every eligible run its
:class:`~repro.cache.stats.SystemStats` is byte-identical to the scalar
engine's (``as_dict()`` compares equal, and serialises to the same JSON
bytes).  The passes below serve the bufferless hierarchy at any
power-of-two L1 associativity: direct-mapped sets take the
shift-compare fast path, 2-way sets a closed form over run heads, and
wider sets a per-segment LRU replay built on the same set-LRU kernel
as the L2 pass.  An assist buffer keeps
cross-set, fully-associative state whose decisions feed back into the
L1 and the MCT, so :func:`simulate_vector` hands buffered cells to the
flat-state replay of :mod:`repro.system.buffered` instead, which models
a direct-mapped L1; a buffer beside an associative L1 is the one cell
left to the scalar engine (:func:`vector_ineligibility`).

Pass structure
--------------

1. **L1 + MCT** (:func:`l1_pass`) — one stable argsort of the trace by
   L1 set index (:func:`repro.mrc.stack.set_order`, a radix sort on a
   ``uint16`` key).  Each set's reference subsequence is then a
   contiguous, in-order segment of the sorted stream, and all per-set state (the
   resident tags, the lines' dirty bits, the MCT entry) becomes
   expressible as shifted comparisons and prefix sums within segments.
   Direct-mapped (``assoc == 1``, :func:`_l1_direct_mapped_pass`), with
   each set's resident block and last victim carried in (-1 = empty):

   * hit ⇔ same block as the previous reference in the segment (the
     carried resident, at the segment's start);
   * eviction ⇔ miss that found a valid block;
   * writeback ⇔ eviction whose victim saw a write since its own fill
     (a windowed sum over a global write-flag cumsum; whole-trace runs
     only);
   * MCT conflict ⇔ the paper's evicted-tag match: at a set's first
     miss the entry is the carried victim, after that the block the
     set's previous miss evicted.

   Set-associative (``assoc > 1``): hits and evictions come from the
   shared set-LRU pass (:func:`repro.mrc.stack.set_lru_flags` — stack
   distance ≤ assoc, eviction once the set is full).  At 2 ways
   (:func:`_l1_two_way_pass`) everything is a closed form over *run
   heads*, the references whose block differs from the previous one in
   the segment: consecutive heads differ, so after head ``t`` the set
   holds heads ``t`` and ``t-1``, head ``t`` hits iff it equals head
   ``t-2``, and otherwise, from the segment's third head on, it evicts
   head ``t-2``'s block.  The heads at even and at odd offsets of a
   segment are two direct-mapped lines:

   * victim of head ``t`` ⇔ head ``t-2``'s block;
   * writeback ⇔ a write fell in any run (a head and its continuations)
     of the victim's residency, a maximal run of equal blocks on its
     line: a per-line cumsum of per-run write counts, anchored at the
     line's latest missing head;
   * MCT conflict ⇔ the missing tag matches the victim of the segment's
     latest earlier eviction.

   Wider sets (:func:`_l1_set_assoc_pass`, the general pass and the
   reference the 2-way form is pinned to) take victim *identity* from
   the deaths-FIFO pairing: call an occurrence a **death** when it is
   the final touch of one residency of its block (its next same-segment
   occurrence re-misses, or never happens).  In set-LRU the victim of
   a segment's k-th eviction is exactly the segment's k-th death in
   position order — an eviction victim is necessarily dead, the LRU
   choice picks the oldest last-touch among residents, and a non-dead
   resident older than the oldest pending death would itself have to
   be the victim of some eviction, hence dead.  Victim writebacks and
   MCT entries then read off the victim positions with cumsums.

2. **L2** — the L1 miss stream, stably sorted by L2 set index, priced
   by the same :func:`repro.mrc.stack.set_lru_flags` (set-LRU of
   associativity A hits ⇔ stack distance ≤ A).  The paper's L2 is
   2-way, so this pass is the closed form: a reference that changes
   block hits iff it equals the block two changes back in its set.

3. **Timing replay** (:func:`_replay_timing`) — the cross-set sequence
   (bus, MSHRs, ROB window) is inherently serial in trace order, so it
   is replayed in trace order over the *measured* window only.  Every
   reference advances the clock by one ``+=``, so the float sums are
   the scalar model's; the retire loop, the bus and the MSHRs run only
   at *event steps* — a miss, or the step at which a pending miss
   leaves the ROB window, all found by one ``searchsorted`` before the
   loop.

4. **Emission** — the simulator's
   :class:`~repro.system.simulator.MeasuredWindow` walks the scalar
   driver's boundary schedule, firing ``sim_tick`` and emitting
   heartbeats whose counters are read off prefix sums, so
   ``events.jsonl`` carries the same events in the same order and
   ``obs.validate --reconcile`` holds for either engine.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

import numpy as np

from repro.cache.geometry import CacheGeometry
from repro.cache.stats import SystemStats, TimingStats
from repro.mrc.stack import set_lru_flags, set_order
from repro.system.config import MachineConfig, PAPER_MACHINE, TimingConfig
from repro.system.policies import AssistConfig
from repro.system.simulator import MeasuredWindow, check_warmup, system_beat
from repro.workloads.trace import Trace


def vector_ineligibility(
    policy: AssistConfig, machine: MachineConfig
) -> Optional[str]:
    """Why this cell cannot run on the vector engine, or ``None``.

    The one remaining disqualifier is an assist buffer beside an
    associative L1.  The buffered replay (:mod:`repro.system.buffered`)
    keeps one resident block per L1 set, so it serves every buffered
    cell whose L1 is direct-mapped, as all of the paper's are.  The
    returned reason names the enabled buffer features and the L1's
    associativity, so a caller that *demanded* the vector engine learns
    which knob to blame rather than a generic refusal.  Cache geometry
    alone never disqualifies: any power-of-two L1 associativity is
    vectorised for bufferless cells (:func:`_l1_set_assoc_pass`).
    """
    if policy.buffer_entries > 0 and machine.l1.assoc > 1:
        features = []
        if policy.victim_fills:
            features.append("victim fills")
        if policy.prefetch:
            features.append("next-line prefetch")
        if policy.exclusion is not None:
            features.append(f"{policy.exclusion} exclusion")
        detail = " + ".join(features) if features else "a raw assist buffer"
        return (
            f"policy {policy.name!r} drives {detail} through its "
            f"{policy.buffer_entries}-entry assist buffer beside a "
            f"{machine.l1.assoc}-way L1, and the buffered replay models "
            "a direct-mapped L1 only"
        )
    return None


# ----------------------------------------------------------------------
# Pass 1: the L1 + MCT, per set
# ----------------------------------------------------------------------
def _l1_direct_mapped_pass(
    blocks: "np.ndarray",
    writes: "Optional[np.ndarray]",
    geometry: CacheGeometry,
    tag_bits: Optional[int],
    resident: "np.ndarray",
    victim: "np.ndarray",
) -> Tuple[L1Flags, Tuple["np.ndarray", "np.ndarray"]]:
    """Direct-mapped L1 + MCT flags for one chunk, resumable.

    ``resident`` and ``victim`` carry each set's resident block and the
    block it most recently evicted (-1 = empty) in from the previous
    chunk; the updated pair is returned beside the trace-order flags.
    ``writes=None`` yields no writebacks.  The writeback algebra assumes
    a cold start, so only a whole-trace run (the simulator's) passes
    writes.
    """
    n = int(len(blocks))
    mask = mct_tag_mask(tag_bits)
    sets = blocks & (geometry.num_sets - 1)
    order = set_order(sets, geometry.num_sets)
    b = blocks[order]
    s = sets[order]

    # Segment starts: the first reference of each set's subsequence.
    seg_start = np.ones(n, dtype=bool)
    np.not_equal(s[1:], s[:-1], out=seg_start[1:])

    # The block each reference finds in its set: whatever the segment's
    # previous reference touched, or the carried resident at the
    # segment's start.  Finding its own block is a hit; a miss evicts
    # the valid block it found.
    found = np.empty(n, dtype=np.int64)
    found[1:] = b[:-1]
    found[seg_start] = resident[s[seg_start]]
    hit_s = b == found
    miss_s = ~hit_s
    evict_s = miss_s & (found >= 0)

    # Writeback ⇔ the victim is dirty: it was filled by a write miss or
    # written by a hit afterwards.  From a cold start, the victim of the
    # eviction at sorted position i was filled at f = the previous miss
    # in the segment, and every position in [f, i-1] references the
    # victim's set and block — so "dirty" is "any write flag in
    # [f, i-1]", a windowed sum over one global cumsum.
    wb_s = np.zeros(n, dtype=bool)
    if writes is not None and n > 1:
        w64 = writes[order].astype(np.int64)
        wcum = np.cumsum(w64)
        positions = np.arange(n, dtype=np.int64)
        last_miss = np.maximum.accumulate(np.where(miss_s, positions, -1))
        fills = last_miss[:-1]  # victim's fill position, aligned to i = 1..n-1
        writes_before_fill = wcum[fills] - w64[fills]
        wb_s[1:] = (wcum[:-1] - writes_before_fill) > 0
        wb_s &= evict_s

    # MCT, classified before the fill: at a set's first miss in the
    # chunk the entry is the carried victim; after that it is the block
    # the set's previous miss evicted.  (A miss that evicted nothing
    # found its set empty, so the carried victim was empty too.)  The
    # misses of one set are contiguous in the sorted stream.
    miss_pos = np.flatnonzero(miss_s)
    probe = b[miss_pos]
    evicted = found[miss_pos]
    miss_sets = s[miss_pos]
    first_miss = np.ones(len(miss_pos), dtype=bool)
    np.not_equal(miss_sets[1:], miss_sets[:-1], out=first_miss[1:])
    entry = np.empty(len(miss_pos), dtype=np.int64)
    entry[1:] = evicted[:-1]
    entry[first_miss] = victim[miss_sets[first_miss]]
    if mask is None:
        # Same set, so equal blocks ⇔ equal tags; -1 matches no block.
        match = entry == probe
    else:
        entry_tags = (entry >> geometry.index_bits) & mask
        probe_tags = (probe >> geometry.index_bits) & mask
        match = (entry >= 0) & (entry_tags == probe_tags)
    conflict_s = np.zeros(n, dtype=bool)
    conflict_s[miss_pos] = match

    # Carry out: each set's last block, and the victim of its last miss
    # when that miss evicted (otherwise the carried victim stands).
    seg_end = np.ones(n, dtype=bool)
    seg_end[:-1] = seg_start[1:]
    new_resident = resident.copy()
    new_resident[s[seg_end]] = b[seg_end]
    last_evict = np.ones(len(miss_pos), dtype=bool)
    last_evict[:-1] = first_miss[1:]
    last_evict &= evicted >= 0
    new_victim = victim.copy()
    new_victim[miss_sets[last_evict]] = evicted[last_evict]

    flags = _unsort(order, hit_s, evict_s, wb_s, conflict_s)
    return flags, (new_resident, new_victim)


def _l1_set_assoc_pass(
    blocks: "np.ndarray",
    writes: "Optional[np.ndarray]",
    geometry: CacheGeometry,
    tag_bits: Optional[int],
) -> L1Flags:
    """The general-associativity, whole-trace L1 + MCT pass.

    Same flags as :func:`_l1_direct_mapped_pass` from a cold start, for
    any power-of-two ``assoc``.  Hits and evictions come from the shared
    set-LRU pass; victim identities from the deaths-FIFO pairing (module
    docstring); dirty bits from per-block write cumsums between each
    residency's fill and its death.  At ``assoc == 1`` this reproduces
    the direct-mapped pass exactly (pinned by a test), but the
    shift-compare pass stays the dispatch choice there — it needs no
    victim pairing and resumes chunk by chunk.
    """
    n = int(len(blocks))
    mask = mct_tag_mask(tag_bits)
    sets = blocks & (geometry.num_sets - 1)
    order = set_order(sets, geometry.num_sets)
    b = blocks[order]
    s = sets[order]

    hit_s, evict_s = set_lru_flags(b, s, geometry.assoc)
    miss_s = ~hit_s

    # Block-run order: a stable sort by block keeps each block's
    # occurrences (all in one segment — a block has one set) contiguous
    # and position-ascending, chaining every occurrence to its next.
    run_order = np.argsort(b, kind="stable")
    run_blocks = b[run_order]
    nxt = np.full(n, n, dtype=np.int64)
    same_run = run_blocks[1:] == run_blocks[:-1]
    nxt[run_order[:-1]] = np.where(same_run, run_order[1:], n)
    # A death ends one residency: the block's next touch re-misses, or
    # never comes (index n hits the appended True).
    miss_ext = np.concatenate((miss_s, np.ones(1, dtype=bool)))
    dead = miss_ext[nxt]

    wb_s = np.zeros(n, dtype=bool)
    conflict_s = np.zeros(n, dtype=bool)
    evict_pos = np.flatnonzero(evict_s)
    if len(evict_pos):
        positions = np.arange(n, dtype=np.int64)
        seg_start = np.ones(n, dtype=bool)
        np.not_equal(s[1:], s[:-1], out=seg_start[1:])
        seg_first = np.maximum.accumulate(np.where(seg_start, positions, 0))

        evict64 = evict_s.astype(np.int64)
        dead64 = dead.astype(np.int64)
        evict_before = np.cumsum(evict64) - evict64
        dead_before = np.cumsum(dead64) - dead64
        death_idx = np.flatnonzero(dead)
        # k-th eviction of a segment evicts the segment's k-th death;
        # segments are contiguous, so "the segment's k-th death" is a
        # global death index offset by the deaths before the segment.
        rank = evict_before[evict_pos] - evict_before[seg_first[evict_pos]]
        victim_pos = death_idx[dead_before[seg_first[evict_pos]] + rank]

        if writes is not None:
            # Victim dirty ⇔ a write touched it between its residency's
            # fill and its death.  In block-run order every residency
            # starts with a miss (runs open with a cold miss), so the
            # fill-anchor accumulate below can never leak across a run
            # boundary.
            w_run = writes[order][run_order].astype(np.int64)
            m_run = miss_s[run_order]
            wcum_run = np.cumsum(w_run)
            anchor = np.maximum.accumulate(
                np.where(m_run, np.arange(n, dtype=np.int64), -1)
            )
            dirty_run = (wcum_run - wcum_run[anchor] + w_run[anchor]) > 0
            dirty_at = np.empty(n, dtype=bool)
            dirty_at[run_order] = dirty_run
            wb_s[evict_pos] = dirty_at[victim_pos]

        # MCT: at classify time of a miss the set's entry holds the
        # (masked) tag of the set's most recent earlier eviction — the
        # victim of global eviction number evict_before[i] (contiguity
        # again), provided that eviction lies in this segment.
        victim_tags = b[victim_pos] >> geometry.index_bits
        miss_pos = np.flatnonzero(miss_s)
        probe_tags = b[miss_pos] >> geometry.index_bits
        if mask is not None:
            victim_tags = victim_tags & mask
            probe_tags = probe_tags & mask
        prior = evict_before[miss_pos]
        has_entry = prior - evict_before[seg_first[miss_pos]] > 0
        match = np.zeros(len(miss_pos), dtype=bool)
        match[has_entry] = (
            victim_tags[prior[has_entry] - 1] == probe_tags[has_entry]
        )
        conflict_s[miss_pos[match]] = True

    return _unsort(order, hit_s, evict_s, wb_s, conflict_s)


def _l1_two_way_pass(
    blocks: "np.ndarray",
    writes: "Optional[np.ndarray]",
    geometry: CacheGeometry,
    tag_bits: Optional[int],
) -> L1Flags:
    """The 2-way, whole-trace L1 + MCT pass, in closed form over run heads.

    Same flags as :func:`_l1_set_assoc_pass` at ``assoc == 2`` (pinned
    by a test), with no block sort and no victim pairing: head ``t``'s
    victim is head ``t-2``'s block, and the heads at even and at odd
    offsets of a segment are two direct-mapped lines (module docstring).
    """
    n = int(len(blocks))
    mask = mct_tag_mask(tag_bits)
    sets = blocks & (geometry.num_sets - 1)
    order = set_order(sets, geometry.num_sets)
    b = blocks[order]
    s = sets[order]

    hit_s, evict_s = set_lru_flags(b, s, geometry.assoc)

    wb_s = np.zeros(n, dtype=bool)
    conflict_s = np.zeros(n, dtype=bool)
    is_head = np.ones(n, dtype=bool)
    np.not_equal(b[1:], b[:-1], out=is_head[1:])
    heads = np.flatnonzero(is_head)
    h_evict = evict_s[heads]
    # Head t evicts head t-2's block.
    evicting = np.flatnonzero(h_evict)
    if len(evicting):
        h_miss = ~hit_s[heads]
        if writes is not None:
            # The victim is dirty iff a write fell in any run (a head and
            # its continuations) of its residency: a per-line cumsum of
            # per-run write counts from the residency's fill, the line's
            # latest missing head.  Global head parity splits the lines,
            # and each line's first head in a segment (offset 0 or 1)
            # misses, so no residency reaches back into another segment.
            run_writes = np.add.reduceat(writes[order], heads, dtype=np.int64)
            dirty = np.empty(len(heads), dtype=bool)
            for line in (0, 1):
                w = run_writes[line::2]
                cum = np.cumsum(w, dtype=np.int64)
                fill = np.maximum.accumulate(
                    np.where(h_miss[line::2], np.arange(len(w)), -1)
                )
                dirty[line::2] = cum - cum[fill] + w[fill] > 0
            wb_s[heads[evicting]] = dirty[evicting - 2]

        # MCT: at a missing head the set's entry holds the victim of the
        # latest earlier evicting head, when that head shares its set.
        # (``cand`` -1 wraps to the last head and is masked out.)
        hb = b[heads]
        hs = s[heads]
        latest = np.maximum.accumulate(
            np.where(h_evict, np.arange(len(heads)), -1)
        )
        miss_t = np.flatnonzero(h_miss)
        cand = latest[np.maximum(miss_t - 1, 0)]
        has_entry = (cand >= 0) & (hs[cand] == hs[miss_t])
        miss_t = miss_t[has_entry]
        entry = hb[cand[has_entry] - 2]
        probe = hb[miss_t]
        if mask is None:
            # Same set, so equal blocks ⇔ equal tags.
            match = entry == probe
        else:
            match = ((entry >> geometry.index_bits) & mask) == (
                (probe >> geometry.index_bits) & mask
            )
        conflict_s[heads[miss_t[match]]] = True

    return _unsort(order, hit_s, evict_s, wb_s, conflict_s)


# ----------------------------------------------------------------------
# Pass 2: the set-associative L2 over the L1 miss stream
# ----------------------------------------------------------------------
def _l2_pass(
    blocks: "np.ndarray", l1_miss: "np.ndarray", geometry: CacheGeometry
) -> Tuple["np.ndarray", "np.ndarray"]:
    """Per-reference (L2 hit, L2 eviction) flags, in trace order.

    Both arrays are full-trace sized but only ever True at L1-miss
    positions (the only references that reach the L2).  The set-LRU
    algebra lives in :func:`repro.mrc.stack.set_lru_flags`; this
    wrapper sorts the miss stream by L2 set and scatters the flags back
    through both permutations (sort order, then miss positions).
    """
    n = int(len(blocks))
    stream = np.flatnonzero(l1_miss)
    hit_at = np.zeros(n, dtype=bool)
    evict_at = np.zeros(n, dtype=bool)
    k = int(len(stream))
    if k == 0:
        return hit_at, evict_at
    mb = blocks[stream]
    sets = mb & (geometry.num_sets - 1)
    order = set_order(sets, geometry.num_sets)
    hit_s, evict_s = set_lru_flags(mb[order], sets[order], geometry.assoc)

    hit_m = np.empty(k, dtype=bool)
    evict_m = np.empty(k, dtype=bool)
    hit_m[order] = hit_s
    evict_m[order] = evict_s
    hit_at[stream] = hit_m
    evict_at[stream] = evict_m
    return hit_at, evict_at


# ----------------------------------------------------------------------
# Pass 3: cross-set timing replay (measured window only)
# ----------------------------------------------------------------------
def _replay_timing(
    gaps: "np.ndarray",
    l1_miss: "np.ndarray",
    l2_hit: "np.ndarray",
    config: TimingConfig,
) -> TimingStats:
    """Replay :class:`~repro.system.timing.TimingModel` over the window.

    Bit-identical to driving the scalar model from a freshly reset
    measurement: same issue clock, same bus-then-MSHR acquisition order
    on misses, same ROB-window stall rule, same FIFO drain at the end.
    Every reference advances the clock by one ``+=``, in trace order, so
    the float sums match; the retire loop, the bus and the MSHRs run
    only at *event steps*: a miss, or the step at which a pending miss
    leaves the ROB window.  That is exact:

    * retiring a head whose completion time has passed changes neither
      the clock nor any counter, it only frees an MSHR — and the MSHR
      count is read only when a miss issues, after that miss's own
      retire loop has caught up on every deferred pop;
    * a head can stall retirement only at its window-exit step, the
      first step ``j`` with ``icum[j] > icum[p] + rob_window`` (``icum``
      the inclusive prefix sum of ``gaps + 1``, ``p`` the miss), and that
      step retires it and every older head, so each pending miss is
      caught there or earlier.

    The window-exit steps of all misses come from one ``searchsorted``
    before the loop.  The drain and the MSHR sweep are unchanged, so
    they need ``rob_window >= 0`` (:class:`TimingConfig` enforces it).
    """
    m = int(len(gaps))
    issued = gaps.astype(np.int64) + 1
    icum = np.cumsum(issued)
    incs: List[float] = (issued / config.issue_rate).tolist()
    # Per reference: 0 = only the clock moves, 1 = a pending miss leaves
    # the window, 2 = a miss that hits the L2, 3 = a miss to memory.
    miss_idx = np.flatnonzero(l1_miss)
    exits = np.searchsorted(icum, icum[miss_idx] + config.rob_window, side="right")
    codes = np.zeros(m, dtype=np.int8)
    codes[exits[exits < m]] = 1
    codes[miss_idx] = np.where(l2_hit[miss_idx], 2, 3)
    events = np.flatnonzero(codes)
    instructions_at = iter(icum[events].tolist())
    latencies = (0.0, 0.0, float(config.l2_latency), float(config.memory_latency))

    stats = TimingStats()
    clock = 0.0
    stall = 0.0
    contention = 0.0
    bus_free = 0.0
    pending: Deque[Tuple[int, float]] = deque()
    window = config.rob_window
    mshrs = config.mshrs
    bus_cycles = config.bus_transfer_cycles
    for inc, code in zip(incs, codes.tolist()):
        # step(): advance past the gap plus this reference ...
        clock += inc
        if not code:
            continue
        # ... then retire.
        instructions = next(instructions_at)
        while pending:
            issue_instr, completion = pending[0]
            if completion <= clock:
                pending.popleft()
            elif instructions - issue_instr > window:
                stall += completion - clock
                clock = completion
                pending.popleft()
            else:
                break
        if code > 1:
            # _fetch_line: the bus is acquired at the current clock ...
            start = bus_free if bus_free > clock else clock
            wait = start - clock
            if wait > 0:
                contention += wait
            bus_free = start + bus_cycles
            # ... then issue_miss acquires an MSHR (stalling to the
            # earliest completion when all are busy, then sweeping every
            # completed operation) before the transfer begins.
            if len(pending) >= mshrs:
                earliest = min(entry[1] for entry in pending)
                if earliest > clock:
                    stall += earliest - clock
                    clock = earliest
                still: Deque[Tuple[int, float]] = deque()
                for entry in pending:
                    if entry[1] > clock:
                        still.append(entry)
                pending = still
            begin = start if start > clock else clock
            pending.append((instructions, begin + latencies[code]))
    # finish(): FIFO-drain whatever is still in flight.
    while pending:
        _, completion = pending.popleft()
        if completion > clock:
            stall += completion - clock
            clock = completion
    stats.cycles = clock
    stats.instructions = int(icum[-1]) if m else 0
    stats.memory_refs = m
    stats.stall_cycles = stall
    stats.contention_cycles = contention
    return stats


# ----------------------------------------------------------------------
# Pass 4: counter assembly + emission walk
# ----------------------------------------------------------------------
def _counter_prefixes(masks: Dict[str, "np.ndarray"]) -> Dict[str, "np.ndarray"]:
    """``pre[name][p]`` = count of True among the first ``p`` refs."""
    return {
        name: np.concatenate(
            (np.zeros(1, dtype=np.int64), np.cumsum(mask.astype(np.int64)))
        )
        for name, mask in masks.items()
    }


def _stats_at(prefixes: Dict[str, "np.ndarray"], p: int) -> SystemStats:
    """The scalar engine's live counters after ``p`` measured refs.

    Timing and buffer stats stay zero: the scalar ``MemorySystem`` only
    publishes timing at ``finish()`` (mid-run heartbeat payloads carry
    the default-constructed zeros), and these passes only run bufferless
    policies.
    """
    stats = SystemStats()
    l1 = stats.l1
    l1.accesses = p
    l1.hits = int(prefixes["l1_hit"][p])
    l1.misses = p - l1.hits
    l1.fills = l1.misses
    l1.evictions = int(prefixes["l1_evict"][p])
    l1.writebacks = int(prefixes["l1_wb"][p])
    l2 = stats.l2
    l2.accesses = l1.misses
    l2.hits = int(prefixes["l2_hit"][p])
    l2.misses = l2.accesses - l2.hits
    l2.fills = l2.misses
    l2.evictions = int(prefixes["l2_evict"][p])
    stats.memory_accesses = l2.misses
    stats.conflict_misses_predicted = int(prefixes["conflict"][p])
    stats.capacity_misses_predicted = (
        l1.misses - stats.conflict_misses_predicted
    )
    return stats


def simulate_vector(
    trace: Trace,
    policy: AssistConfig,
    machine: MachineConfig = PAPER_MACHINE,
    *,
    warmup: int = 0,
) -> SystemStats:
    """Fast-engine run of one trace: byte-identical to the scalar engine.

    Callers normally go through :func:`repro.system.simulator.simulate`
    (whose ``engine="auto"`` falls back to the scalar engine for
    ineligible cells); this function requires an eligible cell and
    raises with the :func:`vector_ineligibility` reason otherwise.
    Buffered cells go to the per-reference replay of
    :mod:`repro.system.buffered`, bufferless ones to the numpy passes.
    """
    n = len(trace)
    check_warmup(warmup, n)
    reason = vector_ineligibility(policy, machine)
    if reason is not None:
        raise ValueError(
            f"not vector-eligible: {reason} — use the scalar engine"
        )
    if policy.uses_buffer:
        from repro.system.buffered import simulate_buffered

        return simulate_buffered(trace, policy, machine, warmup=warmup)
    window = MeasuredWindow(
        bench=trace.name, policy=policy.name, refs=n, warmup=warmup
    )
    geometry = machine.l1
    blocks = trace.addresses >> geometry.offset_bits
    writes = np.logical_not(trace.is_load)

    # Pass 1 covers the whole trace, warmup included: the caches and the
    # MCT warm up exactly as in the scalar engine, and the measured
    # window is sliced off below.
    l1_hit, l1_evict, l1_wb, conflict = l1_pass(
        blocks, writes, geometry, policy.mct_tag_bits
    )
    l1_miss = np.logical_not(l1_hit)
    l2_hit_at, l2_evict_at = _l2_pass(blocks, l1_miss, machine.l2)

    masks: Dict[str, "np.ndarray"] = {
        "l1_hit": l1_hit[warmup:],
        "l1_evict": l1_evict[warmup:],
        "l1_wb": l1_wb[warmup:],
        "l2_hit": l2_hit_at[warmup:],
        "l2_evict": l2_evict_at[warmup:],
        "conflict": conflict[warmup:],
    }
    timing = _replay_timing(
        trace.gaps[warmup:], l1_miss[warmup:], l2_hit_at[warmup:],
        machine.timing,
    )
    prefixes = _counter_prefixes(masks)
    stats = _stats_at(prefixes, n - warmup)
    stats.timing = timing

    # Walk the scalar driver's boundary schedule, reading each beat's
    # counters off the prefix sums, so the event stream (and any armed
    # sim_tick fault — kills included) is indistinguishable from a
    # scalar run.
    window.walk(lambda p: system_beat(_stats_at(prefixes, p)))
    window.close(stats.as_dict())
    from repro.harness.invariants import check_system_stats

    check_system_stats(stats, issue_rate=machine.timing.issue_rate)
    return stats


# ----------------------------------------------------------------------
# The L1 + MCT pass as a library
# ----------------------------------------------------------------------
# Pass 1 is the package's one implementation of the paper's "compare
# the missing tag with the set's last victim, before the fill": the
# simulator runs it over the whole trace,
# :func:`repro.core.accuracy.measure_accuracy` runs it once per stream,
# and the service (:mod:`repro.serve.pipeline`) resumes the
# direct-mapped form batch by batch.

#: Per-reference (hit, eviction, writeback, MCT-conflict) flags.
L1Flags = Tuple["np.ndarray", "np.ndarray", "np.ndarray", "np.ndarray"]


def mct_tag_mask(tag_bits: Optional[int]) -> Optional[int]:
    """The MCT's stored-tag mask, or ``None`` when it compares whole tags.

    Raises ``ValueError`` below one bit, as
    :class:`~repro.core.mct.MissClassificationTable` does.  Widths of 63
    bits or more cannot truncate a non-negative int64 tag, so they
    compare whole tags, like ``None``.
    """
    if tag_bits is not None and tag_bits < 1:
        raise ValueError(f"tag_bits must be >= 1 or None, got {tag_bits}")
    if tag_bits is None or tag_bits >= 63:
        return None
    return (1 << tag_bits) - 1


def empty_l1_state(num_sets: int) -> Tuple["np.ndarray", "np.ndarray"]:
    """Cold direct-mapped state: (resident block, last victim) per set, -1 = empty."""
    return (
        np.full(num_sets, -1, dtype=np.int64),
        np.full(num_sets, -1, dtype=np.int64),
    )


def _unsort(order: "np.ndarray", *sorted_flags: "np.ndarray") -> L1Flags:
    """Scatter the four set-sorted flag arrays back to trace order."""
    out = []
    for flags in sorted_flags:
        restored = np.empty(len(order), dtype=bool)
        restored[order] = flags
        out.append(restored)
    hit, evict, wb, conflict = out
    return hit, evict, wb, conflict


def l1_pass(
    blocks: "np.ndarray",
    writes: "Optional[np.ndarray]",
    geometry: CacheGeometry,
    tag_bits: Optional[int],
) -> L1Flags:
    """Whole-stream L1 + MCT flags from a cold cache, at any associativity.

    ``blocks`` are int64 block numbers in trace order; ``writes`` marks
    stores (``None``: a read-only stream, no writebacks).  The flags
    cover the whole stream, warmup included — the simulator slices its
    measured window afterwards.  The simulator and
    :func:`repro.core.accuracy.measure_accuracy` call this; the service
    resumes :func:`_l1_direct_mapped_pass` batch by batch instead.
    """
    if geometry.assoc == 1:
        flags, _ = _l1_direct_mapped_pass(
            blocks, writes, geometry, tag_bits,
            *empty_l1_state(geometry.num_sets),
        )
        return flags
    if geometry.assoc == 2:
        return _l1_two_way_pass(blocks, writes, geometry, tag_bits)
    return _l1_set_assoc_pass(blocks, writes, geometry, tag_bits)

#!/usr/bin/env python
"""Multithreaded/multiprogrammed conflicts (paper §5.6, future work).

Section 5.6 argues miss classification matters even more when several
threads share a cache, because cross-thread conflicts cannot be fixed in
software.  This example interleaves two analog "threads" reference-by-
reference, shows how the shared-cache conflict share explodes relative to
either program alone, and that the MCT still classifies the mess
accurately — the signal a co-scheduler would use.

Run:  python examples/multiprogrammed_conflicts.py
"""

from repro import CacheGeometry, measure_accuracy
from repro.system import BASELINE, sharing_penalties, simulate_shared
from repro.workloads import build, merge_round_robin

GEO = CacheGeometry(size=16 * 1024, assoc=1, line_size=64)
N = 60_000

pairs = [("go", "li"), ("gcc", "compress"), ("swim", "vortex")]

print(f"{'workload':<18} {'miss%':>7} {'conflict share':>15} "
      f"{'conf acc':>9} {'cap acc':>8}")


def report(name, addresses):
    res = measure_accuracy(addresses, GEO)
    print(f"{name:<18} {res.miss_rate:7.1f} {res.conflict_fraction:14.1f}% "
          f"{res.conflict_accuracy:8.1f}% {res.capacity_accuracy:7.1f}%")
    return res


for a_name, b_name in pairs:
    a = build(a_name, N)
    b = build(b_name, N)
    report(a_name, a.addresses)
    report(b_name, b.addresses)
    mixed = merge_round_robin([a, b], name=f"{a_name}+{b_name}")
    res = report(f"{a_name}+{b_name}", mixed.addresses)
    print()

print("Co-scheduled threads manufacture conflicts neither program has on")
print("its own; the MCT identifies them on the fly, enabling both the")
print("AMB-style optimizations and conflict-aware job co-scheduling.")

# ----------------------------------------------------------------------
# Per-thread sharing penalties on the full shared system (see
# repro.system.multithreaded and the sec56 experiment for more).
# ----------------------------------------------------------------------
print("\n-- per-thread sharing penalty (shared vs solo, uncovered misses) --")
for a_name, b_name in pairs:
    traces = [build(a_name, N // 2), build(b_name, N // 2)]
    shared = simulate_shared(traces, BASELINE, warmup_fraction=0.25)
    for p in sharing_penalties(traces, shared, BASELINE, warmup_fraction=0.25):
        print(f"{p.name:<10} solo {p.solo_miss_rate:5.1f}%  "
              f"shared {p.shared_miss_rate:5.1f}%  penalty {p.penalty:+5.1f}")

"""Unit tests for the statistics containers."""

import dataclasses
import importlib
import pkgutil
import typing

import repro
from repro.cache.stats import (
    BufferStats,
    CacheStats,
    ClassificationStats,
    Counters,
    SystemStats,
    TimingStats,
)
from repro.extensions.page_remap import RemapPolicy
from repro.system.multithreaded import ThreadStats


class TestCacheStats:
    def test_rates(self):
        s = CacheStats(accesses=10, hits=7, misses=3)
        assert s.hit_rate == 70.0
        assert s.miss_rate == 30.0

    def test_zero_division_safe(self):
        assert CacheStats().hit_rate == 0.0

    def test_reset(self):
        s = CacheStats(accesses=10, hits=7)
        s.reset()
        assert s.accesses == 0 and s.hits == 0

    def test_merge(self):
        a = CacheStats(accesses=5, hits=2, misses=3)
        b = CacheStats(accesses=1, hits=1)
        a.merge(b)
        assert a.accesses == 6 and a.hits == 3


class TestBufferStats:
    def test_table1_rates_use_total_accesses(self):
        b = BufferStats(hits=64, swaps=17, fills=66)
        assert b.hit_rate(1000) == 6.4
        assert b.swap_rate(1000) == 1.7
        assert b.fill_rate(1000) == 6.6

    def test_probe_hit_rate(self):
        b = BufferStats(probes=50, hits=10)
        assert b.hit_rate_of_probes == 20.0


class TestClassificationStats:
    def test_record_and_accuracies(self):
        c = ClassificationStats()
        for _ in range(9):
            c.record(predicted_conflict=True, actual_conflict=True)
        c.record(predicted_conflict=False, actual_conflict=True)
        for _ in range(8):
            c.record(predicted_conflict=False, actual_conflict=False)
        for _ in range(2):
            c.record(predicted_conflict=True, actual_conflict=False)
        assert c.true_conflicts == 10
        assert c.true_capacities == 10
        assert c.conflict_accuracy == 90.0
        assert c.capacity_accuracy == 80.0
        assert c.overall_accuracy == 85.0
        assert c.total == 20

    def test_empty_is_zero(self):
        c = ClassificationStats()
        assert c.conflict_accuracy == 0.0
        assert c.overall_accuracy == 0.0

    def test_merge(self):
        a = ClassificationStats(conflict_as_conflict=1)
        b = ClassificationStats(conflict_as_conflict=2, capacity_as_capacity=3)
        a.merge(b)
        assert a.conflict_as_conflict == 3
        assert a.capacity_as_capacity == 3


class TestTimingStats:
    def test_ipc(self):
        t = TimingStats(cycles=100.0, instructions=300)
        assert t.ipc == 3.0

    def test_zero_safe(self):
        assert TimingStats().ipc == 0.0


class TestSystemStats:
    def test_total_hit_rate_combines_l1_and_buffer(self):
        s = SystemStats()
        s.l1 = CacheStats(accesses=100, hits=80)
        s.buffer = BufferStats(hits=10)
        assert s.total_hit_rate == 90.0


def _repro_classes() -> dict:
    """Every class defined in a ``repro`` module, by qualified name."""
    found = {}
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        module = importlib.import_module(info.name)
        for obj in vars(module).values():
            if isinstance(obj, type) and obj.__module__ == module.__name__:
                found[f"{info.name}.{obj.__qualname__}"] = obj
    return found


#: The only fields of a ``Counters`` subclass that are neither ``int`` nor
#: nested ``Counters``: cycle counts that bus/bank contention makes
#: fractional, and labels that ``reset()`` and ``merge()`` leave alone.
NOT_INT_FIELDS = {
    "TimingStats.cycles": float,
    "TimingStats.stall_cycles": float,
    "TimingStats.contention_cycles": float,
    "ThreadStats.name": str,
    "RemapStats.policy": RemapPolicy,
}


def _own_counter_methods(cls: type) -> list:
    """``reset``/``merge`` written on a ``*Stats`` dataclass itself.

    Only :class:`Counters` may define them: a hand-written copy on a
    subclass is how a counter added later once survived warmup resets
    or dropped out of multi-thread rollups.
    """
    if not (dataclasses.is_dataclass(cls) and cls.__name__.endswith("Stats")):
        return []
    return [name for name in ("reset", "merge") if name in vars(cls)]


class TestOneCountersImplementation:
    def test_no_stats_dataclass_defines_its_own_reset_or_merge(self):
        own = {name: _own_counter_methods(cls) for name, cls in _repro_classes().items()}
        assert {
            "repro.cache.stats.CacheStats",
            "repro.cache.stats.BufferStats",
            "repro.cache.stats.ClassificationStats",
            "repro.cache.stats.TimingStats",
            "repro.cache.stats.SystemStats",
            "repro.system.multithreaded.ThreadStats",
        } <= set(own)
        assert {name: methods for name, methods in own.items() if methods} == {}
        assert "reset" in vars(Counters) and "merge" in vars(Counters)

    def test_every_stats_dataclass_keeps_int_counters(self):
        # The counter deltas in events.jsonl must sum exactly to the final
        # snapshot, which the Figure 1-2 accuracy and Section 5 speedup
        # tables rest on; a float counter accumulates rounding error.
        classes = _repro_classes().values()
        stats = [c for c in classes if dataclasses.is_dataclass(c) and c.__name__.endswith("Stats")]
        assert [c.__name__ for c in stats if not issubclass(c, Counters)] == []
        not_int = {}
        for cls in classes:
            if issubclass(cls, Counters) and cls is not Counters:
                hints = typing.get_type_hints(cls)
                for f in dataclasses.fields(cls):
                    kind = hints[f.name]
                    if kind is not int and not (isinstance(kind, type) and issubclass(kind, Counters)):
                        not_int[f"{cls.__name__}.{f.name}"] = kind
        assert not_int == NOT_INT_FIELDS

    def test_predicate_flags_a_hand_written_reset(self):
        @dataclasses.dataclass
        class HandStats(Counters):
            hits: int = 0
            misses: int = 0

            def reset(self) -> None:
                self.hits = 0

        assert _own_counter_methods(HandStats) == ["reset"]
        assert _own_counter_methods(ThreadStats) == []

    def test_reset_keeps_types_and_non_counters(self):
        t = ThreadStats(name="go", accesses=3, misses=1)
        t.reset()
        assert t == ThreadStats(name="go")
        timing = TimingStats(cycles=2.5, instructions=4)
        timing.reset()
        assert type(timing.cycles) is float and timing.instructions == 0
        s = SystemStats(memory_accesses=2)
        s.l1.hits = 5
        other = SystemStats(memory_accesses=1)
        other.l1.hits = 1
        s.merge(other)
        assert s.memory_accesses == 3 and s.l1.hits == 6
        s.reset()
        assert s == SystemStats()

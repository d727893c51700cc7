"""The simulated machine: configuration, timing, memory system, runner."""

from repro.system.config import (
    MachineConfig,
    PAPER_MACHINE,
    SLOW_BUS_MACHINE,
    TimingConfig,
)
from repro.system.memory_system import MemorySystem
from repro.system.multithreaded import (
    SharedRunResult,
    SharingPenalty,
    ThreadStats,
    sharing_penalties,
    simulate_shared,
)
from repro.system.pac_system import PacMemorySystem, simulate_pac
from repro.system.policies import BASELINE, AssistConfig, ExclusionMode
from repro.system.simulator import (
    geomean,
    mean,
    simulate,
    simulate_policies,
    speedup,
)
from repro.system.timing import TimingModel
from repro.system.vector import simulate_vector

__all__ = [
    "AssistConfig",
    "BASELINE",
    "ExclusionMode",
    "MachineConfig",
    "MemorySystem",
    "PAPER_MACHINE",
    "PacMemorySystem",
    "SLOW_BUS_MACHINE",
    "SharedRunResult",
    "SharingPenalty",
    "ThreadStats",
    "TimingConfig",
    "TimingModel",
    "geomean",
    "mean",
    "sharing_penalties",
    "simulate",
    "simulate_pac",
    "simulate_policies",
    "simulate_shared",
    "simulate_vector",
    "speedup",
]

"""GPU simulator substrate: caches, warp scheduler, profiler models."""

from repro.gpu.cache import (
    CacheStats,
    HierarchyResult,
    LEVEL_DRAM,
    LEVEL_L1,
    LEVEL_L2,
    SetAssociativeCache,
    simulate_hierarchy,
)
from repro.gpu.config import CacheConfig, GPUConfig, nvprof_config, v100_config
from repro.gpu.metrics import (
    OCCUPANCY_STATES,
    STALL_REASONS,
    ProfileResult,
    SimResult,
    merge_distributions,
    normalize,
)
from repro.gpu.profiler import NvprofProfiler, aggregate_instruction_fractions
from repro.gpu.simulator import (
    GpuSimulator,
    atomic_contention,
)
from repro.gpu.warp_sim import WarpSimOutput, build_pattern, simulate_warps

__all__ = [
    "CacheConfig",
    "CacheStats",
    "GPUConfig",
    "GpuSimulator",
    "HierarchyResult",
    "LEVEL_DRAM",
    "LEVEL_L1",
    "LEVEL_L2",
    "NvprofProfiler",
    "OCCUPANCY_STATES",
    "ProfileResult",
    "STALL_REASONS",
    "SetAssociativeCache",
    "SimResult",
    "WarpSimOutput",
    "aggregate_instruction_fractions",
    "atomic_contention",
    "build_pattern",
    "merge_distributions",
    "normalize",
    "nvprof_config",
    "simulate_hierarchy",
    "simulate_warps",
    "v100_config",
]

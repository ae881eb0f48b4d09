"""The nvprof substitute: analytic hardware-profiler model.

nvprof derives its metrics from hardware performance counters, not from
cycle simulation.  This module does the analytic equivalent over the same
kernel launch records:

* L1/L2 hit rates from a cache model configured like the *hardware*
  (sectored-effective L1, write-no-allocate L2) rather than like
  GPGPU-Sim — see :func:`repro.gpu.config.nvprof_config`;
* compute / memory utilization (Fig. 9) from a latency-aware roofline:
  the kernel's time is the max of its issue time, its DRAM time and its
  exposed-latency time, plus a fixed launch overhead; each utilization is
  that component's share.

Comparing these numbers against :class:`~repro.gpu.simulator.GpuSimulator`
outputs reproduces the paper's Fig. 8 profiler-vs-simulator study.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

import numpy as np

from repro.core.kernels.launch import KernelLaunch
from repro.gpu.cache import launch_hierarchy
from repro.gpu.config import GPUConfig, nvprof_config
from repro.gpu.metrics import ProfileResult

__all__ = ["NvprofProfiler"]

#: Fixed kernel-launch overhead in cycles (driver + dispatch); keeps tiny
#: kernels from reporting perfect utilization, as real profilers show.
_LAUNCH_OVERHEAD_CYCLES = 2_500.0

#: Outstanding memory requests a warp sustains (memory-level parallelism).
_MLP_PER_WARP = 4.0


def _l2_read_hit_rate(hierarchy) -> float:
    """L2 hit rate over read accesses that reached L2 (nvprof semantics)."""
    from repro.gpu.cache import LEVEL_L2

    reached_l2 = hierarchy.levels >= LEVEL_L2
    reads = reached_l2 & ~hierarchy.is_store
    total = int(np.count_nonzero(reads))
    if total == 0:
        return 0.0
    hits = int(np.count_nonzero(reads & (hierarchy.levels == LEVEL_L2)))
    return hits / total


class NvprofProfiler:
    """Analytic profiler over kernel launch records.

    Parameters
    ----------
    config:
        Hardware-side GPU model; defaults to :func:`nvprof_config`.
    cache:
        Optional :class:`repro.cache.TraceCache`.  When given, each
        launch's result is keyed by its trace fingerprint plus the GPU
        model — the same per-launch persistence the simulator uses —
        so re-profiling a known trace is a disk read.
    """

    def __init__(self, config: Optional[GPUConfig] = None, cache=None):
        self.config = config or nvprof_config()
        self.cache = cache

    def profile(self, launch: KernelLaunch) -> ProfileResult:
        """Profile one kernel launch (cache-aware)."""
        from repro.cache import cached_launch_result
        return cached_launch_result(
            self.cache, "profile", launch, self.config,
            lambda: self._profile(launch), self.config.name)

    def _profile(self, launch: KernelLaunch) -> ProfileResult:
        """The actual analytic profile of one launch."""
        cfg = self.config
        hierarchy = launch_hierarchy(launch, cfg)
        total_accesses = hierarchy.levels.shape[0]
        dram_fraction = (hierarchy.dram_accesses / total_accesses
                         if total_accesses else 0.0)
        # nvprof's l2_tex_hit_rate counts *read* sectors; GPGPU-Sim's L2
        # stats count every access.  This counter-semantics difference is
        # a major source of the paper's Fig. 8 L2 divergence.
        l2_read_hit_rate = _l2_read_hit_rate(hierarchy)

        # Analytic totals use the launch's exact byte counts (the trace
        # may be sampled); the miss *fraction* comes from the trace.
        total_bytes = launch.bytes_read + launch.bytes_written
        dram_bytes = total_bytes * dram_fraction

        per_sm_instr = launch.mix.total / cfg.num_sms
        t_compute = per_sm_instr / cfg.issue_width

        per_sm_dram_bytes = dram_bytes / cfg.num_sms
        t_memory = per_sm_dram_bytes / cfg.dram_bytes_per_cycle_per_sm

        # Exposed latency: average access latency divided by the memory
        # parallelism the launch can sustain.
        latencies = hierarchy.latencies(cfg)
        avg_latency = float(latencies.mean()) if latencies.shape[0] else 0.0
        resident = min(cfg.max_warps_per_sm,
                       max(1.0, launch.warps / cfg.num_sms))
        mem_instr_per_sm = launch.mix.ldst / cfg.num_sms
        mlp = resident * _MLP_PER_WARP
        t_latency = (mem_instr_per_sm * avg_latency) / mlp if mlp else 0.0

        t_total = max(t_compute, t_memory, t_latency) + _LAUNCH_OVERHEAD_CYCLES
        # Launches too small to fill the GPU cannot reach peak utilization
        # no matter their roofline position.
        occupancy = min(
            1.0, launch.warps / (cfg.num_sms * cfg.max_warps_per_sm)
        ) ** 0.5
        compute_utilization = min(1.0, t_compute / t_total) * occupancy
        memory_utilization = min(1.0, t_memory / t_total) * occupancy

        return ProfileResult(
            kernel=launch.kernel,
            short_form=launch.short_form,
            model=launch.model,
            l1_hit_rate=hierarchy.l1.hit_rate,
            l2_hit_rate=l2_read_hit_rate,
            compute_utilization=compute_utilization,
            memory_utilization=memory_utilization,
            dram_bytes=dram_bytes,
            elapsed_estimate_cycles=t_total,
            instruction_fractions=launch.mix.fractions(),
            tag=launch.tag,
        )

    def profile_all(self, launches: Iterable[KernelLaunch]) -> List[ProfileResult]:
        """Profile a sequence of launches."""
        return [self.profile(launch) for launch in launches]


def aggregate_instruction_fractions(
        results: Iterable[ProfileResult],
        weights: Optional[Iterable[float]] = None) -> Dict[str, float]:
    """Merge per-launch instruction breakdowns (Fig. 5 aggregation).

    Weighted by estimated elapsed cycles unless explicit weights are
    given.
    """
    results = list(results)
    if weights is None:
        weights = [r.elapsed_estimate_cycles for r in results]
    merged: Dict[str, float] = {}
    total_weight = 0.0
    for result, weight in zip(results, weights):
        total_weight += weight
        for key, value in result.instruction_fractions.items():
            merged[key] = merged.get(key, 0.0) + value * weight
    if total_weight <= 0:
        return {k: 0.0 for k in merged}
    return {k: v / total_weight for k, v in merged.items()}

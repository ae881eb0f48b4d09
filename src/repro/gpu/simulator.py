"""The GPGPU-Sim substitute: trace-driven, timing-detailed GPU simulation.

:class:`GpuSimulator` consumes :class:`~repro.core.kernels.KernelLaunch`
records (produced by running the real kernels under
:func:`~repro.core.kernels.record_launches`) and produces
:class:`~repro.gpu.metrics.SimResult` records carrying every metric the
paper reports from GPGPU-Sim: issue-stall distribution (Fig. 6), warp
occupancy (Fig. 7), L1/L2 hit rates (Fig. 8), and compute/memory
utilization.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

import numpy as np

from repro.core.kernels.launch import KernelLaunch, LINE_BYTES
from repro.gpu.cache import launch_hierarchy
from repro.gpu.config import GPUConfig, v100_config
from repro.gpu.metrics import SimResult, normalize
from repro.gpu.warp_sim import build_pattern, simulate_warps

__all__ = ["GpuSimulator", "atomic_contention"]


def atomic_contention(stores: np.ndarray) -> float:
    """Collision fraction of an atomic store stream.

    The fraction of accesses hitting a line some other access in the
    stream also hits: 0 for all-distinct destinations, approaching 1 when
    every atomic lands on a handful of hub nodes.  Drives the
    Synchronization stall share of scatter.
    """
    n = stores.shape[0]
    if n == 0:
        return 0.0
    unique = np.unique(stores).shape[0]
    return float(1.0 - unique / n)


class GpuSimulator:
    """Trace-driven cycle simulator for kernel launches.

    Parameters
    ----------
    config:
        GPU model; defaults to the V100-like GPGPU-Sim configuration.
    cache:
        Optional :class:`repro.cache.TraceCache`.  When given, each
        launch's result is keyed by its trace fingerprint plus the GPU
        model, so re-simulating a known trace is a disk read.
    """

    def __init__(self, config: Optional[GPUConfig] = None, cache=None):
        self.config = config or v100_config()
        self.cache = cache

    def simulate(self, launch: KernelLaunch) -> SimResult:
        """Simulate one kernel launch end to end (cache-aware)."""
        from repro.cache import cached_launch_result
        return cached_launch_result(
            self.cache, "sim", launch, self.config,
            lambda: self._simulate(launch), self.config.name)

    def _simulate(self, launch: KernelLaunch) -> SimResult:
        """The actual cycle simulation of one launch."""
        cfg = self.config
        hierarchy = launch_hierarchy(launch, cfg)

        # Warps wait on loads and on atomic read-modify-writes; plain
        # stores retire through the write buffer without stalling issue.
        latencies = hierarchy.latencies(cfg)
        waiting = ~hierarchy.is_store if not launch.atomic else np.ones_like(
            hierarchy.is_store)
        mem_latencies = latencies[waiting]

        resident = self._resident_warps(launch)
        ipw = self._instructions_per_warp(launch, resident)
        fracs = launch.mix.fractions()
        pattern = build_pattern(
            mem_fraction=fracs["Load/Store"],
            control_fraction=fracs["Control"],
        )
        contention = atomic_contention(launch.stores) if launch.atomic else 0.0

        out = simulate_warps(
            cfg,
            resident_warps=resident,
            instructions_per_warp=ipw,
            pattern=pattern,
            mem_latencies=mem_latencies,
            atomic=launch.atomic,
            contention=contention,
            active_lanes=launch.active_lanes,
        )

        cycles = max(1, out.cycles)
        issued = max(1, out.issued)
        # mix counts thread-level operations; one warp instruction covers
        # warp_size threads.
        per_sm_warp_instructions = launch.mix.total / cfg.warp_size / cfg.num_sms
        estimated_total_cycles = cycles * max(1.0, per_sm_warp_instructions / issued)

        # Utilization over the simulated window (Fig. 9 counterpart).
        compute_utilization = min(1.0, issued / (cycles * cfg.issue_width))
        mem_issued = issued * fracs["Load/Store"]
        dram_fraction = (hierarchy.dram_accesses / hierarchy.levels.shape[0]
                         if hierarchy.levels.shape[0] else 0.0)
        dram_bytes = mem_issued * dram_fraction * LINE_BYTES
        memory_utilization = min(
            1.0, dram_bytes / (cycles * cfg.dram_bytes_per_cycle_per_sm)
        )

        return SimResult(
            kernel=launch.kernel,
            short_form=launch.short_form,
            model=launch.model,
            cycles=cycles,
            issued_instructions=out.issued,
            stall_distribution=normalize(out.stall_counts),
            occupancy_distribution=normalize(out.occupancy_counts),
            l1_hit_rate=hierarchy.l1.hit_rate,
            l2_hit_rate=hierarchy.l2.hit_rate,
            compute_utilization=compute_utilization,
            memory_utilization=memory_utilization,
            estimated_total_cycles=estimated_total_cycles,
            ipc=out.issued / cycles,
            tag=launch.tag,
            completed=out.completed,
        )

    def simulate_all(self, launches: Iterable[KernelLaunch]) -> List[SimResult]:
        """Simulate a sequence of launches (one pipeline's recording)."""
        return [self.simulate(launch) for launch in launches]

    # -- launch-geometry models -------------------------------------------
    def _resident_warps(self, launch: KernelLaunch) -> int:
        """Warps co-resident on the representative SM."""
        per_sm = launch.warps / self.config.num_sms
        return int(min(self.config.max_warps_per_sm, max(1, round(per_sm))))

    def _instructions_per_warp(self, launch: KernelLaunch,
                               resident: int) -> int:
        """Warp-level dynamic instructions per resident warp.

        ``mix`` counts thread-level operations; a warp instruction covers
        ``warp_size`` of them.  The representative SM folds all of its
        launch share (all waves) into its resident warps, capped for
        simulation cost.
        """
        cfg = self.config
        warp_instructions_total = launch.mix.total / cfg.warp_size
        per_resident = warp_instructions_total / (cfg.num_sms * resident)
        return int(min(cfg.max_instructions_per_warp, max(4, round(per_resident))))


"""GPU model configurations.

:func:`v100_config` mirrors the paper's experimental setup — GPGPU-Sim
4.0's shipped ``SM7_QV100`` configuration modelling an NVIDIA V100
(Volta): 80 SMs, 128 KiB combined L1/shared per SM, 6 MiB L2, 128-byte
lines, ~900 GB/s HBM2.

:func:`nvprof_config` is the *profiler-side* memory model — deliberately
different in the ways real hardware differs from GPGPU-Sim's model
(sectored L1 with a smaller effective capacity once the shared-memory
carve-out is accounted for, and write traffic included in L2 hit
accounting).  Fig. 8's profiler-vs-simulator divergence comes from these
modelling differences, exactly as the paper argues more validation of
GPGPU-Sim's memory model is needed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import SimulationError

__all__ = ["CacheConfig", "GPUConfig", "v100_config", "nvprof_config"]


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and policy of one cache level."""

    size_bytes: int
    line_bytes: int
    associativity: int
    write_allocate: bool = True

    def __post_init__(self):
        if self.size_bytes <= 0 or self.line_bytes <= 0 or self.associativity <= 0:
            raise SimulationError(f"invalid cache geometry: {self}")
        lines = self.size_bytes // self.line_bytes
        if lines % self.associativity != 0 or lines < self.associativity:
            raise SimulationError(
                f"cache size {self.size_bytes} not divisible into "
                f"{self.associativity}-way sets of {self.line_bytes}-byte lines"
            )

    @property
    def num_sets(self) -> int:
        """Number of sets."""
        return self.size_bytes // (self.line_bytes * self.associativity)


@dataclass(frozen=True)
class GPUConfig:
    """Full GPU timing model parameters.

    ``simulated_sms`` bounds how many SM-private L1 caches the trace is
    partitioned across (sampled simulation); the shared L2 capacity is
    scaled by ``simulated_sms / num_sms`` to preserve per-SM pressure.
    """

    name: str
    num_sms: int
    max_warps_per_sm: int
    issue_width: int                 # instructions issued per SM per cycle
    warp_size: int
    l1: CacheConfig
    l2: CacheConfig
    l1_latency: int                  # cycles
    l2_latency: int
    dram_latency: int
    alu_latency: int
    sfu_latency: int                 # control / special ops
    fetch_latency: int               # instruction fetch gap after an issue
    atomic_penalty: int              # extra cycles per contended atomic
    dram_bytes_per_cycle_per_sm: float
    peak_flops_per_cycle_per_sm: float
    # -- sampled-simulation knobs ----------------------------------------
    simulated_sms: int = 4
    max_instructions_per_warp: int = 300
    max_cycles: int = 60_000

    def __post_init__(self):
        if self.simulated_sms <= 0 or self.simulated_sms > self.num_sms:
            raise SimulationError(
                f"simulated_sms must be in [1, {self.num_sms}], "
                f"got {self.simulated_sms}"
            )

    def scaled_l2(self) -> CacheConfig:
        """L2 slice seen by the simulated SM subset."""
        fraction = self.simulated_sms / self.num_sms
        size = max(
            self.l2.line_bytes * self.l2.associativity,
            int(self.l2.size_bytes * fraction),
        )
        # Round down to a valid set count.
        unit = self.l2.line_bytes * self.l2.associativity
        size = max(unit, (size // unit) * unit)
        return replace(self.l2, size_bytes=size)


def v100_config(**overrides) -> GPUConfig:
    """The GPGPU-Sim-side V100 model (SM7_QV100-like)."""
    base = GPUConfig(
        name="V100-GPGPUSim",
        num_sms=80,
        max_warps_per_sm=64,
        issue_width=2,
        warp_size=32,
        l1=CacheConfig(size_bytes=128 * 1024, line_bytes=128, associativity=4),
        l2=CacheConfig(size_bytes=6 * 1024 * 1024, line_bytes=128,
                       associativity=16),
        l1_latency=28,
        l2_latency=193,
        dram_latency=420,
        # Effective dependent-chain ALU latency: the raw pipe is ~4 cycles
        # but intra-warp ILP overlaps ~2 of them on average.
        alu_latency=2,
        sfu_latency=8,
        fetch_latency=1,
        atomic_penalty=24,
        dram_bytes_per_cycle_per_sm=8.0,      # ~900 GB/s / 80 SMs / 1.38 GHz
        peak_flops_per_cycle_per_sm=128.0,    # 2 x 64 FP32 lanes (FMA)
    )
    return replace(base, **overrides) if overrides else base


def nvprof_config(**overrides) -> GPUConfig:
    """The hardware/profiler-side memory model.

    Differences from :func:`v100_config` (sources of Fig. 8 divergence):

    * the L1 model matches the simulator's — GPGPU-Sim's L1 was validated
      against Volta hardware (Lew et al., ISPASS'19), so profiler and
      simulator L1 hit rates track each other closely;
    * L2 without write-allocate and with doubled associativity — the L2 /
      DRAM side is GPGPU-Sim's known weak point; nvprof's L2 hit rate
      counts write traffic differently from the simulator's
      allocate-on-write model, which is why the paper sees L2 disagree
      more than L1 (and calls for more validation of the memory model).
    """
    base = v100_config(
        l2=CacheConfig(size_bytes=6 * 1024 * 1024, line_bytes=128,
                       associativity=32, write_allocate=False),
    )
    base = replace(base, name="V100-nvprof")
    return replace(base, **overrides) if overrides else base

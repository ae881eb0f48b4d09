"""An AMD CDNA-class (MI100-like) GPU model for the simulator tests.

The paper names other architectures as future work ("support different
architectures such as AMD GPUs"); no figure uses one.  The tests keep
this model because it differs from the V100 in the ways that exercise
the simulator's generality: 64-wide wavefronts, many small per-CU L1s
(16 KiB), a larger shared L2, higher per-CU memory bandwidth (HBM2
across 120 CUs), and single-issue wavefront scheduling.
"""

from dataclasses import replace

from repro.gpu.config import CacheConfig, GPUConfig


def mi100_config(**overrides) -> GPUConfig:
    """The MI100-like model, with any field replaced by ``overrides``."""
    base = GPUConfig(
        name="MI100-sim",
        num_sms=120,                 # compute units
        max_warps_per_sm=40,         # wavefront slots per CU
        issue_width=1,
        warp_size=64,
        l1=CacheConfig(size_bytes=16 * 1024, line_bytes=128, associativity=4),
        l2=CacheConfig(size_bytes=8 * 1024 * 1024, line_bytes=128,
                       associativity=16),
        l1_latency=40,
        l2_latency=220,
        dram_latency=480,
        alu_latency=2,
        sfu_latency=8,
        fetch_latency=1,
        atomic_penalty=32,
        dram_bytes_per_cycle_per_sm=6.7,   # ~1.2 TB/s / 120 CUs / 1.5 GHz
        peak_flops_per_cycle_per_sm=128.0,
    )
    return replace(base, **overrides) if overrides else base

"""Result records and stat taxonomies shared by simulator and profiler.

The taxonomies are exactly the legends of the paper's figures:

* :data:`STALL_REASONS` — Fig. 6's issue-stall classes;
* :data:`OCCUPANCY_STATES` — Fig. 7's warp-occupancy states.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable

__all__ = [
    "STALL_REASONS",
    "OCCUPANCY_STATES",
    "SimResult",
    "ProfileResult",
    "normalize",
    "merge_distributions",
]

#: Issue-stall classes (Fig. 6 legend order).
STALL_REASONS = (
    "MemoryDependency",
    "ExecutionDependency",
    "InstructionIssued",
    "InstructionFetch",
    "Synchronization",
    "NotSelected",
)

#: Warp-occupancy states (Fig. 7 legend order).
OCCUPANCY_STATES = ("Stall", "Idle", "W8", "W20", "W32")


def normalize(distribution: Dict[str, float]) -> Dict[str, float]:
    """Scale a counter dict to fractions summing to 1 (all-zero stays 0)."""
    total = float(sum(distribution.values()))
    if total <= 0:
        return {k: 0.0 for k in distribution}
    return {k: v / total for k, v in distribution.items()}


def merge_distributions(parts: Iterable[Dict[str, float]],
                        weights: Iterable[float]) -> Dict[str, float]:
    """Weighted merge of normalised distributions (e.g. across launches).

    Weights are typically per-launch cycle counts; the merged result is
    renormalised.
    """
    merged: Dict[str, float] = {}
    for dist, weight in zip(parts, weights):
        for key, value in dist.items():
            merged[key] = merged.get(key, 0.0) + value * weight
    return normalize(merged) if merged else {}


@dataclass
class SimResult:
    """Cycle-simulator output for one kernel launch (GPGPU-Sim substitute).

    All distributions are normalised fractions.  ``cycles`` is the
    representative-SM simulated cycle count; ``estimated_total_cycles``
    extrapolates to the full launch.  ``completed`` is False when the
    warp simulation stopped at ``GPUConfig.max_cycles`` with warps still
    live, so every figure describes the capped window only.
    """

    kernel: str
    short_form: str
    model: str
    cycles: int
    issued_instructions: int
    stall_distribution: Dict[str, float]
    occupancy_distribution: Dict[str, float]
    l1_hit_rate: float
    l2_hit_rate: float
    compute_utilization: float
    memory_utilization: float
    estimated_total_cycles: float
    ipc: float
    tag: str = ""
    completed: bool = True

    def dominant_stall(self) -> str:
        """The stall reason with the largest share (excluding issued)."""
        candidates = {k: v for k, v in self.stall_distribution.items()
                      if k != "InstructionIssued"}
        return max(candidates, key=candidates.get) if candidates else ""


@dataclass
class ProfileResult:
    """Profiler (nvprof substitute) output for one kernel launch."""

    kernel: str
    short_form: str
    model: str
    l1_hit_rate: float
    l2_hit_rate: float
    compute_utilization: float
    memory_utilization: float
    dram_bytes: float
    elapsed_estimate_cycles: float
    instruction_fractions: Dict[str, float]
    tag: str = ""


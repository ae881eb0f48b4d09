"""Shared machinery for the per-figure experiment drivers.

Figures 4-9 all consume the same kernel recordings (one instrumented
inference per model/dataset/computational-model combination) and the
same per-launch simulation/profiling results.  Both are memoised here
keyed by the benchmark profile, *and* persisted through the
content-addressed :mod:`repro.cache` so results survive across
processes and runs: a warm benchmark run loads every trace, simulation
and timing from ``results/.cache`` instead of recomputing it.

The expensive unit of work is a :class:`WorkCell` — one (kind, model,
dataset, computational model, framework) combination.  Experiment
drivers declare the cells they need via their ``cells(profile)`` hook;
the engine (:mod:`repro.bench.engine`) computes each once with
:func:`compute_cell`, which fills this module's memo tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.bench.profiles import BenchProfile
from repro.cache import compute_key, get_cache
from repro.core.config import SuiteConfig
from repro.core.kernels import KernelLaunch
from repro.core.pipeline import GNNPipeline
from repro.datasets import DATASET_NAMES, get_spec
from repro.gpu.config import v100_config
from repro.gpu.metrics import ProfileResult, SimResult, merge_distributions
from repro.gpu.profiler import NvprofProfiler
from repro.gpu.simulator import GpuSimulator

__all__ = [
    "MP_MODELS",
    "SPMM_MODELS",
    "DATASET_ORDER",
    "WorkCell",
    "pipeline_for",
    "recorded_launches",
    "sim_results",
    "profile_results",
    "measured_times",
    "compute_cell",
    "merge_sim_by_kernel",
    "clear_bench_cache",
]

#: Models evaluated per computational model (paper Section V-A: every
#: model has both implementations except SAG, which is MP-only).
MP_MODELS = ("gcn", "gin", "sage")
SPMM_MODELS = ("gcn", "gin")

#: Paper presentation order with short forms.
DATASET_ORDER = tuple((name, get_spec(name).short_form)
                      for name in DATASET_NAMES)

_Key = Tuple[str, str, str, str, str]
_LAUNCHES: Dict[_Key, List[KernelLaunch]] = {}
_SIMS: Dict[_Key, List[SimResult]] = {}
_PROFS: Dict[_Key, List[ProfileResult]] = {}
_TIMES: Dict[_Key, List[float]] = {}


@dataclass(frozen=True)
class WorkCell:
    """One schedulable unit of benchmark work.

    ``kind`` selects the artifact: ``record`` (kernel-launch trace),
    ``sim`` (cycle simulation), ``profile`` (analytic profiler) or
    ``timing`` (Fig. 3 wall-clock measurement).
    """

    kind: str
    model: str
    dataset: str
    compute_model: str
    framework: str = "gsuite"

    def label(self) -> str:
        """Compact display form for progress/timing output."""
        return (f"{self.kind}:{self.model}/{self.dataset}"
                f"/{self.compute_model}/{self.framework}")


def clear_bench_cache() -> None:
    """Drop all memoised recordings, simulations, profiles and timings.

    Only the in-process memo tables are cleared; the persistent
    :mod:`repro.cache` store is managed separately (``gsuite cache``).
    """
    _LAUNCHES.clear()
    _SIMS.clear()
    _PROFS.clear()
    _TIMES.clear()


def pipeline_for(model: str, dataset: str, compute_model: str,
                 profile: BenchProfile,
                 framework: str = "gsuite") -> GNNPipeline:
    """Build the standard benchmark pipeline for one grid point."""
    config = SuiteConfig(
        dataset=dataset,
        model=model,
        compute_model=compute_model,
        framework=framework,
        scale=profile.scale_of(dataset),
        sample_cap=profile.sample_cap,
        repeats=profile.repeats,
        # The paper's figures characterize the *unfused* Table II
        # kernels (Fig. 5's is/sc/sg/sp taxonomy), so the figure bench
        # pins fusion off; tools/bench_fusion.py is the fusion bench.
        fuse="off",
        # Likewise pinned single-graph: every figure cell is one
        # (dataset, model, framework) pipeline, and packing the
        # small-graph cells into batched plans would fold their
        # per-graph setup character — exactly what Fig. 3 measures —
        # into one launch stream; tools/bench_batching.py is the
        # batching bench.
        batch=1,
    )
    return GNNPipeline(config)


def _key(model: str, dataset: str, compute_model: str, profile: BenchProfile,
         framework: str) -> _Key:
    return (model, dataset, compute_model, profile.name, framework)


def _cache_payload(model: str, dataset: str, compute_model: str,
                   profile: BenchProfile, framework: str) -> dict:
    """Everything that determines one cell's value, for key hashing.

    The suite config carries dataset/scale/seed/model/framework; the
    profile contributes the simulation budgets.  ("sim" results are
    not keyed here — they persist per launch inside
    :class:`GpuSimulator`, with the GPU model in the key.)
    """
    config = pipeline_for(model, dataset, compute_model, profile,
                          framework).config
    return {
        "config": config.to_dict(),
        "profile": {
            "name": profile.name,
            "dataset_scales": profile.dataset_scales,
            "sample_cap": profile.sample_cap,
            "max_cycles": profile.max_cycles,
            "repeats": profile.repeats,
        },
    }


def _cell_meta(cell: WorkCell, profile: BenchProfile) -> dict:
    return {"cell": cell.label(), "profile": profile.name}


def recorded_launches(model: str, dataset: str, compute_model: str,
                      profile: BenchProfile,
                      framework: str = "gsuite") -> List[KernelLaunch]:
    """Kernel launch records of one pipeline (memoised + disk-cached)."""
    key = _key(model, dataset, compute_model, profile, framework)
    if key not in _LAUNCHES:
        cache = get_cache()
        cache_key = compute_key("record", _cache_payload(
            model, dataset, compute_model, profile, framework))
        launches = cache.get("record", cache_key)
        if launches is None:
            pipeline = pipeline_for(model, dataset, compute_model, profile,
                                    framework)
            launches = pipeline.record().launches
            cache.put("record", cache_key, launches, meta=_cell_meta(
                WorkCell("record", model, dataset, compute_model, framework),
                profile))
        _LAUNCHES[key] = launches
    return _LAUNCHES[key]


def sim_results(model: str, dataset: str, compute_model: str,
                profile: BenchProfile,
                framework: str = "gsuite") -> List[SimResult]:
    """GPGPU-Sim-substitute results for one pipeline (memoised).

    Persistence happens per launch inside :class:`GpuSimulator`, keyed
    by each trace's fingerprint — see ``KernelLaunch.fingerprint``.
    """
    key = _key(model, dataset, compute_model, profile, framework)
    if key not in _SIMS:
        simulator = GpuSimulator(v100_config(max_cycles=profile.max_cycles),
                                 cache=get_cache())
        _SIMS[key] = simulator.simulate_all(
            recorded_launches(model, dataset, compute_model, profile,
                              framework))
    return _SIMS[key]


def profile_results(model: str, dataset: str, compute_model: str,
                    profile: BenchProfile,
                    framework: str = "gsuite") -> List[ProfileResult]:
    """nvprof-substitute results for one pipeline (memoised + disk-cached)."""
    key = _key(model, dataset, compute_model, profile, framework)
    if key not in _PROFS:
        cache = get_cache()
        cache_key = compute_key("profile", _cache_payload(
            model, dataset, compute_model, profile, framework))
        results = cache.get("profile", cache_key)
        if results is None:
            profiler = NvprofProfiler()
            results = profiler.profile_all(
                recorded_launches(model, dataset, compute_model, profile,
                                  framework))
            cache.put("profile", cache_key, results, meta=_cell_meta(
                WorkCell("profile", model, dataset, compute_model, framework),
                profile))
        _PROFS[key] = results
    return _PROFS[key]


def measured_times(model: str, dataset: str, compute_model: str,
                   profile: BenchProfile,
                   framework: str = "gsuite") -> List[float]:
    """Fig. 3 wall-clock repeats for one grid point (memoised + cached).

    Caching a *timing* keeps warm benchmark runs byte-identical to the
    run that produced them; pass ``--no-cache`` (or clear the cache) to
    re-measure on the current machine.
    """
    key = _key(model, dataset, compute_model, profile, framework)
    if key not in _TIMES:
        cache = get_cache()
        cache_key = compute_key("timing", _cache_payload(
            model, dataset, compute_model, profile, framework))
        times = cache.get("timing", cache_key)
        if times is None:
            pipeline = pipeline_for(model, dataset, compute_model, profile,
                                    framework)
            # One untimed warm-up run removes allocator/BLAS first-touch
            # noise from all variants equally; the measured repeats still
            # include each framework's full pipeline-construction cost.
            pipeline.build().run()
            times = pipeline.measure(profile.repeats)
            cache.put("timing", cache_key, times, meta=_cell_meta(
                WorkCell("timing", model, dataset, compute_model, framework),
                profile))
        _TIMES[key] = times
    return _TIMES[key]


# ---------------------------------------------------------------------------
# WorkCell execution — the engine's interface
# ---------------------------------------------------------------------------

_CELL_FUNCS = {
    "record": recorded_launches,
    "sim": sim_results,
    "profile": profile_results,
    "timing": measured_times,
}


def compute_cell(cell: WorkCell, profile: BenchProfile):
    """Compute (or load) one cell's value and memoise it."""
    try:
        func = _CELL_FUNCS[cell.kind]
    except KeyError:
        raise ValueError(f"unknown work-cell kind {cell.kind!r}; "
                         f"known: {sorted(_CELL_FUNCS)}") from None
    return func(cell.model, cell.dataset, cell.compute_model, profile,
                framework=cell.framework)


def merge_sim_by_kernel(results: List[SimResult]) -> Dict[str, dict]:
    """Aggregate per-launch simulator results by kernel short form.

    Distributions merge cycle-weighted; hit rates and utilizations are
    cycle-weighted means.  Returns ``{short_form: summary_dict}``.
    """
    grouped: Dict[str, List[SimResult]] = {}
    for result in results:
        grouped.setdefault(result.short_form, []).append(result)
    merged: Dict[str, dict] = {}
    for short_form, items in grouped.items():
        weights = [r.cycles for r in items]
        total = float(sum(weights)) or 1.0
        merged[short_form] = {
            "stalls": merge_distributions(
                (r.stall_distribution for r in items), weights),
            "occupancy": merge_distributions(
                (r.occupancy_distribution for r in items), weights),
            "l1_hit_rate": sum(r.l1_hit_rate * w for r, w in zip(items, weights)) / total,
            "l2_hit_rate": sum(r.l2_hit_rate * w for r, w in zip(items, weights)) / total,
            "compute_utilization": sum(
                r.compute_utilization * w for r, w in zip(items, weights)) / total,
            "memory_utilization": sum(
                r.memory_utilization * w for r, w in zip(items, weights)) / total,
            "launches": len(items),
        }
    return merged

"""Parallel execution engine for the benchmark suite.

The serial harness walks all nine experiments in paper order, and the
memo tables in :mod:`repro.bench.common` ensure nothing is recomputed
within one run — but everything still executes on a single core.  This
engine schedules the expensive :class:`~repro.bench.common.WorkCell`
units across a :mod:`multiprocessing` pool and then renders every
experiment in the parent from the warmed memos, so the tables are
byte-identical to the serial path while the heavy lifting fans out.

Scheduling happens in waves:

1. ``record`` cells — every trace recording, deduplicated across the
   experiments that share it;
2. ``sim`` / ``profile`` cells — consumers of wave 1's traces.  The
   second pool is created after wave 1's results are seeded into the
   parent memos, so (on fork platforms) workers inherit the traces and
   never recompute them even with the persistent cache disabled;
3. ``timing`` cells — Fig. 3 wall-clock measurements, executed
   *serially in the parent* so pool contention never distorts them.

Workers communicate results by pickled return value and, when the
persistent cache is enabled, also through ``results/.cache`` — which is
what makes warm reruns cheap regardless of parallelism.
"""

from __future__ import annotations

import os
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.bench import common, experiments
from repro.bench.pool import DispatchReport, WorkerPool
from repro.bench.profiles import BenchProfile, active_profile
from repro.bench.tables import write_result
from repro.cache import CacheStats, env_enabled, get_cache
from repro.errors import ConfigError

__all__ = ["EXPERIMENTS", "CellTiming", "SuiteReport", "WorkerPool",
           "collect_cells", "run_suite"]

#: Experiment id -> driver module, in paper order.
EXPERIMENTS = {
    "table2": experiments.table2,
    "table4": experiments.table4,
    "fig3": experiments.fig3,
    "fig4": experiments.fig4,
    "fig5": experiments.fig5,
    "fig6": experiments.fig6,
    "fig7": experiments.fig7,
    "fig8": experiments.fig8,
    "fig9": experiments.fig9,
}

#: Cell kinds of the two pooled scheduling waves.
_WAVES = (("record",), ("sim", "profile"))


@dataclass
class CellTiming:
    """Wall-clock and cache accounting for one executed cell."""

    cell: common.WorkCell
    seconds: float
    cached: bool


@dataclass
class SuiteReport:
    """Everything one suite run produced, for the harness summary."""

    checks: Dict[str, Dict[str, bool]] = field(default_factory=dict)
    experiment_seconds: Dict[str, float] = field(default_factory=dict)
    cell_timings: List[CellTiming] = field(default_factory=list)
    cache_stats: CacheStats = field(default_factory=CacheStats)
    #: Pool supervision events accumulated across every wave — retries,
    #: worker deaths, degradations (empty on a clean run).
    dispatch: DispatchReport = field(default_factory=DispatchReport)
    total_seconds: float = 0.0
    jobs: int = 1


def collect_cells(profile: BenchProfile) -> List[common.WorkCell]:
    """Deduplicated work cells of every experiment, in first-need order."""
    ordered: Dict[common.WorkCell, None] = {}
    for module in EXPERIMENTS.values():
        cells = getattr(module, "cells", None)
        if cells is None:
            continue
        for cell in cells(profile):
            ordered.setdefault(cell, None)
    return list(ordered)


def _execute_cell(args: Tuple[common.WorkCell, BenchProfile, bool]):
    """Compute one cell, returning its value plus accounting.

    Runs in pool workers and (for serial waves and degraded tasks) in
    the parent; must stay a module-level function so it pickles under
    every multiprocessing start method.  Cache-stat *deltas* and the
    computing process's pid are returned so the caller merges only
    worker counters, never the parent's own twice.
    """
    cell, profile, use_cache = args
    cache = get_cache()
    # The GSUITE_CACHE=0 kill switch beats any programmatic opt-in.
    cache.enabled = use_cache and env_enabled()
    before = cache.stats.to_dict()
    start = time.perf_counter()
    value = common.compute_cell(cell, profile)
    seconds = time.perf_counter() - start
    after = cache.stats.to_dict()
    delta = CacheStats(**{k: after[k] - before[k] for k in after})
    return cell, value, seconds, delta, os.getpid()


def _run_wave(cells: List[common.WorkCell], profile: BenchProfile,
              jobs: int, use_cache: bool,
              report: SuiteReport) -> None:
    """Execute one wave of cells (pool when jobs > 1) and seed the memos."""
    if not cells:
        return
    tasks = [(cell, profile, use_cache) for cell in cells]
    # A fresh pool per wave: forked workers inherit every memo the
    # parent has seeded so far, so later waves reuse earlier traces.
    with WorkerPool(min(jobs, len(cells))) as pool:
        outcomes = pool.map(_execute_cell, tasks)
    report.dispatch.merge(pool.report)
    parent = os.getpid()
    for cell, value, seconds, delta, pid in outcomes:
        common.seed_cell(cell, profile, value)
        # "cached" means nothing was computed: at least one hit and no
        # misses (a sim cell can hit on some launches and compute others).
        cached = delta.hits > 0 and delta.misses == 0
        report.cell_timings.append(CellTiming(cell, seconds, cached))
        if pid != parent:
            # Cells computed in the parent (serial waves, degraded tasks)
            # already accumulated in its live counters; worker-side
            # counters only travel back through the delta.
            report.cache_stats.merge(delta)


def run_suite(profile: Optional[BenchProfile] = None, jobs: int = 1,
              use_cache: bool = True, stream=None,
              results_base: Optional[str] = None) -> SuiteReport:
    """Run every experiment, fanning expensive cells across ``jobs``.

    Tables are written to ``results/<experiment>.txt`` (or under
    ``results_base``) and echoed to ``stream`` (default stdout), exactly
    as the serial harness does; with ``jobs=1`` this *is* the serial
    path.
    """
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    profile = profile or active_profile()
    stream = stream or sys.stdout
    cache = get_cache()
    # The suite accounts its own hits/misses and honours use_cache; both
    # are restored afterwards so embedding processes keep their state.
    saved_enabled, saved_stats = cache.enabled, cache.stats
    cache.enabled = use_cache and env_enabled()
    cache.stats = CacheStats()
    report = SuiteReport(jobs=jobs)
    suite_start = time.perf_counter()

    try:
        cells = collect_cells(profile)
        for kinds in _WAVES:
            _run_wave([c for c in cells if c.kind in kinds], profile, jobs,
                      use_cache, report)
        # Timing cells run serially in the parent: wall-clock measurements
        # must never share the machine with pool workers.
        _run_wave([c for c in cells if c.kind == "timing"], profile, 1,
                  use_cache, report)

        for name, module in EXPERIMENTS.items():
            start = time.perf_counter()
            result_rows = module.rows(profile)
            table = module.render(profile)
            checks = module.checks(result_rows)
            path = write_result(name, table, base=results_base)
            report.checks[name] = checks
            elapsed = time.perf_counter() - start
            report.experiment_seconds[name] = elapsed
            print(table, file=stream)
            print(f"[{name}] wrote {path} in {elapsed:.1f}s; checks:",
                  file=stream)
            for check, ok in checks.items():
                print(f"  {'PASS' if ok else 'FAIL'}  {check}", file=stream)
            print(file=stream)

        report.cache_stats.merge(cache.stats)
    finally:
        cache.enabled = saved_enabled
        cache.stats = saved_stats
    report.total_seconds = time.perf_counter() - suite_start
    _print_summary(report, stream)
    return report


def _print_summary(report: SuiteReport, stream) -> None:
    """Per-task timing and cache accounting after the tables."""
    if report.cell_timings:
        computed = [t for t in report.cell_timings if not t.cached]
        print(f"engine: {len(report.cell_timings)} cells "
              f"({len(report.cell_timings) - len(computed)} from cache, "
              f"{len(computed)} computed) across {report.jobs} job(s)",
              file=stream)
        slowest = sorted(report.cell_timings, key=lambda t: -t.seconds)[:5]
        for timing in slowest:
            origin = "cache" if timing.cached else "computed"
            print(f"  {timing.seconds:7.2f}s  {timing.cell.label()}  "
                  f"[{origin}]", file=stream)
    if report.dispatch.faulted:
        print(f"dispatch: {report.dispatch.summary()}", file=stream)
    print(f"cache: {report.cache_stats.summary()}", file=stream)
    print(f"total: {report.total_seconds:.1f}s", file=stream)

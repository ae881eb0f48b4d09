"""The benchmark suite's one in-process loop.

The expensive units of the suite are :class:`~repro.bench.common.WorkCell`
values: trace recordings, their simulations and profiles, and Fig. 3's
wall-clock measurements.  Several experiments share a cell, so the
engine first collects every experiment's cells, deduplicated, then
computes each once in this order:

1. ``record`` cells — every trace recording;
2. ``sim`` / ``profile`` cells — consumers of step 1's traces, which
   they read from the memo tables :func:`~repro.bench.common.compute_cell`
   filled;
3. ``timing`` cells — Fig. 3 wall-clock measurements.

Every experiment is then rendered from the warmed memos.  The persistent
trace cache (``results/.cache``) is what makes warm reruns cheap: a warm
run loads every cell from disk.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.bench import common, experiments
from repro.bench.profiles import BenchProfile, active_profile
from repro.bench.tables import write_result
from repro.cache import CacheStats, env_enabled, get_cache

__all__ = ["EXPERIMENTS", "CellTiming", "SuiteReport", "collect_cells",
           "run_suite"]

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

#: Cell kind -> its step in the loop (records, then their consumers,
#: then the wall-clock cells).
_STEP = {"record": 0, "sim": 1, "profile": 1, "timing": 2}


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
    cell_timings: List[CellTiming] = field(default_factory=list)
    cache_stats: CacheStats = field(default_factory=CacheStats)
    total_seconds: float = 0.0


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


def _run_cells(cells: List[common.WorkCell], profile: BenchProfile,
               report: SuiteReport) -> None:
    """Compute every cell in loop order, timing and classifying each."""
    stats = report.cache_stats
    for cell in sorted(cells, key=lambda c: _STEP[c.kind]):
        hits, misses = stats.hits, stats.misses
        start = time.perf_counter()
        common.compute_cell(cell, profile)
        seconds = time.perf_counter() - start
        # "cached" means nothing was computed: at least one hit and no
        # misses (a sim cell can hit on some launches and compute others).
        cached = stats.hits > hits and stats.misses == misses
        report.cell_timings.append(CellTiming(cell, seconds, cached))


def run_suite(profile: Optional[BenchProfile] = None, use_cache: bool = True,
              stream=None, results_base: Optional[str] = None) -> SuiteReport:
    """Run every experiment.

    Tables are written to ``results/<experiment>.txt`` (or under
    ``results_base``) and echoed to ``stream`` (default stdout).
    """
    profile = profile or active_profile()
    stream = stream or sys.stdout
    report = SuiteReport()
    cache = get_cache()
    # The run counts its hits and misses straight into its report and
    # honours use_cache (the GSUITE_CACHE=0 kill switch beats any
    # programmatic opt-in); both are restored afterwards so embedding
    # processes keep their state.
    saved_enabled, saved_stats = cache.enabled, cache.stats
    cache.enabled = use_cache and env_enabled()
    cache.stats = report.cache_stats
    suite_start = time.perf_counter()

    try:
        _run_cells(collect_cells(profile), profile, report)

        for name, module in EXPERIMENTS.items():
            start = time.perf_counter()
            result_rows = module.rows(profile)
            table = module.render(profile)
            checks = module.checks(result_rows)
            path = write_result(name, table, base=results_base)
            report.checks[name] = checks
            elapsed = time.perf_counter() - start
            print(table, file=stream)
            print(f"[{name}] wrote {path} in {elapsed:.1f}s; checks:",
                  file=stream)
            for check, ok in checks.items():
                print(f"  {'PASS' if ok else 'FAIL'}  {check}", file=stream)
            print(file=stream)
    finally:
        cache.enabled = saved_enabled
        cache.stats = saved_stats
    report.total_seconds = time.perf_counter() - suite_start
    _print_summary(report, stream)
    return report


def _print_summary(report: SuiteReport, stream) -> None:
    """Per-cell timing and cache accounting after the tables."""
    if report.cell_timings:
        computed = [t for t in report.cell_timings if not t.cached]
        print(f"engine: {len(report.cell_timings)} cells "
              f"({len(report.cell_timings) - len(computed)} from cache, "
              f"{len(computed)} computed)", file=stream)
        slowest = sorted(report.cell_timings, key=lambda t: -t.seconds)[:5]
        for timing in slowest:
            origin = "cache" if timing.cached else "computed"
            print(f"  {timing.seconds:7.2f}s  {timing.cell.label()}  "
                  f"[{origin}]", file=stream)
    print(f"cache: {report.cache_stats.summary()}", file=stream)
    print(f"total: {report.total_seconds:.1f}s", file=stream)

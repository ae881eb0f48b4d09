"""Metric names, units and how each is computed from a measurement.

The names are final: BENCHMARK.json declares exactly ``END_TO_END`` and
``PER_LAYER`` (test_e2e_smoke.py checks the two agree).  End-to-end
values always come from an untraced run; per-layer values from the
traced run that follows it.

End-to-end timings come from ``Measurement.corrected()`` — each latency
divided by the host's slowness around that op where a workload measures
it (see workloads.py); the values as measured travel beside them as
``raw``.  Per-layer times are as measured; ``driver.host_slowness`` is
the traced run's median factor.

Per-layer conventions: ``*_ms`` is the layer's mean *self* time per op
(its spans minus their children), seen from the request — a packed
batch that served two requests counts in full for each — except the
inclusive ones: ``core.pipeline.record_ms``, ``plan.executor.run_ms``,
``bench.common.*_cell_ms``.  ``*_calls``, ``*_launches`` and plain
counts are work done divided by ops.  ``datasets.*`` and
``plan.lowering.lowered`` are totals of the set-up phase.  Kernel
``flops`` and ``bytes_moved`` are computed from operand shapes by the
kernels' launch records, not measured.
"""

from __future__ import annotations

import statistics

from tracing import KERNELS, aggregate, op_sum_errors

__all__ = ["END_TO_END", "PER_LAYER", "percentile", "timings",
           "end_to_end", "per_layer"]

#: (name, unit, better, bound).  Bounds are shares of the parent's
#: median; README.md says how they were sized for a noisy 2-core host.
END_TO_END = (
    ("op_p50_ms", "ms", "lower", 0.25),
    ("op_p90_ms", "ms", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
)

_LOWER, _HIGHER = "lower", "higher"

#: (name, unit, better, source).  ``source`` names where the value
#: comes from: ``("self" | "total" | "calls", span name)`` is that
#: per-op figure of :func:`tracing.aggregate`, ``("run", counter)`` a
#: run-phase counter per op, ``("extra", key)`` a tally the workload
#: returned per op, and ``None`` one of the hand-computed values in
#: :func:`per_layer`.
_LAYERS = (
    ("datasets.load_ms", "ms", _LOWER, None),
    ("datasets.load_calls", "count", _LOWER, None),
    ("core.pipeline.build_self_ms", "ms", _LOWER,
     ("self", "core.pipeline.build")),
    ("core.pipeline.record_ms", "ms", _LOWER,
     ("total", "core.pipeline.record")),
    ("frameworks.build_self_ms", "ms", _LOWER, ("self", "frameworks.build")),
    ("core.models.build_model_ms", "ms", _LOWER,
     ("self", "core.models.build_model")),
    ("core.models.build_model_calls", "count", _LOWER,
     ("calls", "core.models.build_model")),
    ("plan.lowering.cached_plan_self_ms", "ms", _LOWER,
     ("self", "plan.lowering.cached_plan")),
    ("plan.lowering.lowered", "count", _LOWER, None),
    ("cache.get_ms", "ms", _LOWER, ("self", "cache.get")),
    ("cache.get_calls", "count", _LOWER, ("calls", "cache.get")),
    ("cache.put_ms", "ms", _LOWER, ("self", "cache.put")),
    ("cache.put_calls", "count", _LOWER, ("calls", "cache.put")),
    ("cache.hits", "count", _HIGHER, ("run", "cache.hits")),
    ("cache.misses", "count", _LOWER, ("run", "cache.misses")),
    ("cache.stores", "count", _LOWER, ("run", "cache.stores")),
    ("cache.corrupt", "count", _LOWER, ("run", "cache.corrupt")),
    ("cache.disk_mb", "MB", _LOWER, None),
    ("plan.planner.gates_ms", "ms", _LOWER, ("self", "plan.planner.gates")),
    ("plan.planner.gate_calls", "count", _LOWER,
     ("calls", "plan.planner.gates")),
    ("plan.planner.graph_stats_ms", "ms", _LOWER,
     ("self", "plan.planner.graph_stats")),
    ("plan.fusion.fuse_plan_ms", "ms", _LOWER,
     ("self", "plan.fusion.fuse_plan")),
    ("plan.fusion.fused_sites", "count", _HIGHER,
     ("run", "plan.fusion.fused_sites")),
    ("plan.executor.run_ms", "ms", _LOWER, ("total", "plan.executor.run")),
    ("plan.executor.walk_self_ms", "ms", _LOWER,
     ("self", "plan.executor.run")),
    ("plan.executor.ops", "count", _LOWER, ("run", "plan.executor.ops")),
) + tuple(
    row for kernel in KERNELS for row in (
        (f"core.kernels.{kernel}_ms", "ms", _LOWER,
         ("self", f"core.kernels.{kernel}")),
        (f"core.kernels.{kernel}_launches", "count", _LOWER,
         ("calls", f"core.kernels.{kernel}")))
) + (
    ("core.kernels.flops", "flop", _LOWER, ("run", "core.kernels.flops")),
    ("core.kernels.bytes_moved", "B", _LOWER,
     ("run", "core.kernels.bytes_moved")),
    ("gpu.simulator.simulate_ms", "ms", _LOWER,
     ("self", "gpu.simulator.simulate_all")),
    ("gpu.simulator.launches", "count", _LOWER,
     ("run", "gpu.simulator.launches")),
    ("gpu.simulator.cycles", "cycles", _LOWER,
     ("run", "gpu.simulator.cycles")),
    ("gpu.simulator.instr_per_host_s", "1/s", _HIGHER, None),
    ("gpu.simulator.cache_hits", "count", _HIGHER,
     ("run", "gpu.simulator.cache_hits")),
    ("gpu.profiler.profile_ms", "ms", _LOWER,
     ("self", "gpu.profiler.profile_all")),
    ("gpu.profiler.launches", "count", _LOWER,
     ("run", "gpu.profiler.launches")),
    ("bench.common.cold_cell_ms", "ms", _LOWER, None),
    ("bench.common.warm_cell_ms", "ms", _LOWER, None),
    ("bench.common.warm_hit_ratio", "ratio", _HIGHER, None),
    ("serve.requests.resolve_graph_ms", "ms", _LOWER,
     ("self", "serve.requests.resolve_graph")),
    ("serve.requests.resolve_graph_calls", "count", _LOWER,
     ("calls", "serve.requests.resolve_graph")),
    ("serve.batcher.submit_ms", "ms", _LOWER,
     ("self", "serve.batcher.submit")),
    ("serve.batcher.due_ms", "ms", _LOWER, ("self", "serve.batcher.due")),
    ("serve.batcher.queue_wait_ms", "ms", _LOWER,
     ("self", "serve.batcher.queue_wait")),
    ("serve.batcher.flush_full", "count", _HIGHER,
     ("run", "serve.batcher.flush_full")),
    ("serve.batcher.flush_deadline", "count", _LOWER,
     ("run", "serve.batcher.flush_deadline")),
    ("serve.batcher.flush_close", "count", _LOWER,
     ("run", "serve.batcher.flush_close")),
    ("serve.batcher.group_size_mean", "count", _HIGHER, None),
    ("serve.padding.pad_ms", "ms", _LOWER, ("self", "serve.padding.pad")),
    ("serve.padding.pad_calls", "count", _LOWER,
     ("calls", "serve.padding.pad")),
    ("serve.padding.padded_mb", "MB", _LOWER, None),
    ("graph.batch.pack_ms", "ms", _LOWER, ("self", "graph.batch.pack")),
    ("graph.batch.unpack_ms", "ms", _LOWER, ("self", "graph.batch.unpack")),
    ("serve.service.batched", "count", _HIGHER, ("extra", "batched")),
    ("serve.service.solo", "count", _LOWER, ("extra", "solo")),
    ("serve.service.degraded", "count", _LOWER, ("extra", "degraded")),
    ("serve.service.plan_cache_hits", "count", _HIGHER,
     ("extra", "plan_cache_hits")),
    ("serve.service.max_batch_size", "count", _HIGHER, None),
    ("serve.service.worker_busy_share", "ratio", _LOWER, None),
    ("serve.service.latency_p99_ms", "ms", _LOWER, None),
    ("driver.unattributed_share", "ratio", _LOWER, None),
    ("driver.trace_overhead_share", "ratio", _LOWER, None),
    ("driver.host_slowness", "ratio", _LOWER, None),
    ("driver.samples", "count", _HIGHER, None),
)

#: (name, unit, better) of every per-layer metric.
PER_LAYER = tuple(row[:3] for row in _LAYERS)


def percentile(values, q):
    """The ``q``-quantile (0..1) by nearest rank on sorted values."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, round(q * (len(ordered) - 1)))]


def _with_units(values, table):
    return {row[0]: {"value": values[row[0]], "unit": row[1]}
            for row in table}


def _chunks(values):
    """Consecutive chunks of at least ten values, twenty chunks at most."""
    count = max(1, min(20, len(values) // 10))
    return [values[i * len(values) // count:(i + 1) * len(values) // count]
            for i in range(count)]


def timings(latencies, clients):
    """``op_p50_ms``, ``op_p90_ms`` and ``ops_per_s`` of ``latencies``
    (seconds) from a closed loop of ``clients``.

    Throughput is clients / mean latency — each client always has
    exactly one op in flight — taken as the median over consecutive
    chunks of the op stream: a mean, unlike a percentile, moves with a
    single stall of the host, and this way a stall spoils the chunks it
    overlaps instead of the figure.
    """
    millis = [latency * 1e3 for latency in latencies]
    return {
        "op_p50_ms": statistics.median(millis),
        "op_p90_ms": percentile(millis, 0.9),
        "ops_per_s": statistics.median(clients * len(chunk) * 1e3 / sum(chunk)
                                       for chunk in _chunks(millis)),
    }


def end_to_end(m, setup_s, peak_rss_mb):
    """The end-to-end metrics of one untraced measurement ``m``: its
    timings corrected for the host's slowness, memory and set-up time
    as measured."""
    return _with_units({**timings(m.corrected(), m.clients),
                        "peak_rss_mb": peak_rss_mb, "setup_s": setup_s},
                       END_TO_END)


def per_layer(tracer, traced, untraced):
    """``(metrics, error)``: every per-layer metric from the traced
    measurement and its spans, and the worst relative gap between an op
    span and the self times beneath it.

    ``untraced`` is the reference measurement taken just before in the
    same process, for ``driver.trace_overhead_share``.
    """
    self_ms, total_ms, calls, unattributed, samples = aggregate(tracer)
    ops = max(1, samples)
    phases = {"setup": {}, "run": {}, "warm": {}}
    for (phase, name), n in tracer.counts.items():
        phases[phase][name] = n
    tables = {
        "self": self_ms, "total": total_ms, "calls": calls,
        "run": {name: n / ops for name, n in phases["run"].items()},
        "extra": {key: n / ops for key, n in traced.extra.items()
                  if isinstance(n, (int, float))},
    }
    values = {name: tables[source[0]].get(source[1], 0.0)
              for name, _, _, source in _LAYERS if source is not None}

    run_spans = [s for s in tracer.spans if s.phase == "run"]
    setup_loads = [s.dur for s in tracer.spans
                   if s.phase == "setup" and s.name == "datasets.load"]
    warm_cells = [s.dur for s in tracer.spans
                  if s.name == "bench.common.warm_cell"]
    executing = sum(s.dur for s in run_spans
                    if s.name == "serve.service.execute")
    simulate_s = total_ms.get("gpu.simulator.simulate_all", 0.0) * ops / 1e3
    warm = phases["warm"]
    warm_gets = warm.get("cache.hits", 0) + warm.get("cache.misses", 0)
    groups = phases["run"].get("serve.batcher.groups", 0)
    served = "batched" in traced.extra
    values.update({
        "datasets.load_ms": sum(setup_loads) * 1e3,
        "datasets.load_calls": len(setup_loads),
        "plan.lowering.lowered":
            phases["setup"].get("plan.lowering.lowered", 0),
        "cache.disk_mb": traced.extra.get("cache_disk_bytes", 0) / 2**20,
        "gpu.simulator.instr_per_host_s":
            phases["run"].get("gpu.simulator.instructions", 0) / simulate_s
            if simulate_s else 0.0,
        "bench.common.cold_cell_ms":
            total_ms.get("bench.common.cold_cell", 0.0)
            / max(1.0, calls.get("bench.common.cold_cell", 0.0)),
        "bench.common.warm_cell_ms":
            statistics.fmean(warm_cells) * 1e3 if warm_cells else 0.0,
        "bench.common.warm_hit_ratio":
            warm.get("cache.hits", 0) / warm_gets if warm_gets else 0.0,
        "serve.batcher.group_size_mean":
            phases["run"].get("serve.batcher.members", 0) / groups
            if groups else 0.0,
        "serve.padding.padded_mb":
            tables["run"].get("serve.padding.padded_bytes", 0.0) / 2**20,
        "serve.service.max_batch_size":
            traced.extra.get("max_batch_size", 0),
        "serve.service.worker_busy_share": executing / traced.wall_s,
        "serve.service.latency_p99_ms":
            percentile(traced.latencies, 0.99) * 1e3 if served else 0.0,
        "driver.unattributed_share": unattributed,
        "driver.trace_overhead_share":
            statistics.median(traced.corrected())
            / statistics.median(untraced.corrected()) - 1.0,
        "driver.host_slowness": traced.host_slowness(),
        "driver.samples": samples,
    })
    return (_with_units(values, PER_LAYER),
            max(op_sum_errors(run_spans), default=0.0))

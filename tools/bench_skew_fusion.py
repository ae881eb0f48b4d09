#!/usr/bin/env python3
"""Benchmark skew-aware sharding (``BENCH_skew_fusion.json`` at the
repo root).

Each MP aggregation workload runs, unfused, on a *degree-sorted* copy
of scaled Reddit — rows relabeled hubs-first, the worst-case export
order the planner's skew gate prices.  At the planner's own shard
count the even-row partitioner and the edge-balanced partitioner run
head to head, asserting bit-for-bit output parity against the
unsharded reference on both.  The headline metric is the simulated
*shard makespan* (heaviest shard's cycles plus the serial merge, on
the deterministic :class:`~repro.gpu.simulator.GpuSimulator`) — the
quantity the edge-balanced split optimises and the one a worker pool
or a multi-SM dispatch realises; host wall-clock rides along for
reference but is too noisy on small containers to gate on.

Usage::

    PYTHONPATH=src python tools/bench_skew_fusion.py --profile ci
    PYTHONPATH=src python tools/bench_skew_fusion.py --scale 0.05
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np  # noqa: E402

from repro.bench.profiles import PROFILES  # noqa: E402
from repro.core.kernels import record_launches  # noqa: E402
from repro.core.models import get_model_class  # noqa: E402
from repro.datasets import load_dataset  # noqa: E402
from repro.frameworks import PipelineSpec, get_backend  # noqa: E402
from repro.graph import Graph  # noqa: E402
from repro.plan import (  # noqa: E402
    GraphStats,
    ShardingPolicy,
    choose_partitioner,
    choose_shards,
)

#: MP aggregation workloads.
SKEW_WORKLOADS = (
    ("sage", "reddit", "MP"),
    ("gin", "reddit", "MP"),
)

#: The win the planner's skew gate promises; the committed JSON must
#: clear it on every workload whose planner decision is "edges".
REQUIRED_SPEEDUP = 1.3


def _best_seconds(fn, repeats: int) -> float:
    fn()  # warm-up: allocator, BLAS thread pools, lazy structures
    return min(_timed(fn) for _ in range(repeats))


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _degree_sorted(graph: Graph) -> Graph:
    """Relabel rows by descending in-degree — hubs first.

    The adversarial layout for even-row sharding: a natural random row
    order spreads hubs across the contiguous ranges and averages the
    imbalance away, while degree-sorted exports (a common preprocessing
    artefact) concentrate the heavy rows in one shard.
    """
    degrees = graph.in_degrees()
    order = np.argsort(-degrees, kind="stable")
    rank = np.empty(graph.num_nodes, dtype=np.int64)
    rank[order] = np.arange(graph.num_nodes)
    return Graph(np.stack([rank[graph.src], rank[graph.dst]]),
                 num_nodes=graph.num_nodes,
                 features=graph.features[order],
                 name=f"{graph.name}-degsorted")


def _shard_cycles(simulator, trace) -> tuple:
    """``(makespan, total)`` simulated cycles of one shard trace."""
    per_shard, serial = {}, 0.0
    for launch, result in zip(trace, simulator.simulate_all(trace)):
        match = re.search(r"@shard(\d+)/", launch.tag)
        if match:
            shard = int(match.group(1))
            per_shard[shard] = (per_shard.get(shard, 0.0)
                                + result.estimated_total_cycles)
        else:
            serial += result.estimated_total_cycles
    makespan = (max(per_shard.values()) if per_shard else 0.0) + serial
    return makespan, sum(per_shard.values()) + serial


def bench_skew(simulator, profile, scale_override, repeats, failures):
    rows = []
    backend = get_backend("gsuite")
    for model, dataset, compute_model in SKEW_WORKLOADS:
        scale = scale_override or profile.scale_of(dataset)
        graph = _degree_sorted(load_dataset(dataset, scale=scale, seed=0))
        stats = GraphStats.from_graph(graph)
        spec = PipelineSpec(model=model, compute_model=compute_model,
                            out_features=8)
        # The message matrix the shards slice exists only unfused.
        built = backend.build(spec, graph, fuse=False)
        cls = get_model_class(model)
        k = choose_shards(built.plan.meta["dims"], stats,
                          formats=list(built.plan.layer_formats),
                          width_hook=cls.aggregation_width)
        chosen = choose_partitioner(stats, k)
        reference = built.run()
        print(f"{model:5s} {dataset}@{scale:g}  N={graph.num_nodes} "
              f"E={graph.num_edges} skew={stats.degree_skew:.1f}  "
              f"planner K={k} partitioner={chosen}")
        entry = {
            "model": model, "dataset": dataset, "scale": scale,
            "compute_model": compute_model,
            "nodes": graph.num_nodes, "edges": graph.num_edges,
            "degree_skew": round(stats.degree_skew, 2),
            "planner_shards": k, "planner_partitioner": chosen,
            "partitioners": {},
        }
        if k <= 1:
            print("  planner chose K=1 at this scale; nothing to compare")
            rows.append(entry)
            continue
        for partitioner in ("rows", "edges"):
            sharded = backend.build(spec, graph, fuse=False) \
                .configure_sharding(ShardingPolicy(
                    num_shards=k, partitioner=partitioner))
            with record_launches():
                out = sharded.run()
            if not np.array_equal(out, reference):
                failures.append(f"{model}/{dataset} K={k} "
                                f"{partitioner}: output mismatch")
                continue
            makespan, total = _shard_cycles(
                simulator, sharded._executor.shard_trace)
            seconds = _best_seconds(sharded.run, repeats)
            entry["partitioners"][partitioner] = {
                "makespan_cycles": round(makespan, 1),
                "total_cycles": round(total, 1),
                "seconds": seconds,
            }
            print(f"  {partitioner:5s}  makespan "
                  f"{makespan / 1e6:8.3f} Mcycles  wall "
                  f"{seconds * 1e3:8.1f} ms  [outputs bit-identical]")
        both = entry["partitioners"]
        if {"rows", "edges"} <= both.keys():
            speedup = (both["rows"]["makespan_cycles"]
                       / both["edges"]["makespan_cycles"])
            entry["speedup_edges_vs_rows_makespan"] = round(speedup, 3)
            entry["speedup_edges_vs_rows_wallclock"] = round(
                both["rows"]["seconds"] / both["edges"]["seconds"], 3)
            print(f"  edge-balanced makespan speedup: {speedup:.2f}x")
            if chosen == "edges" and speedup < REQUIRED_SPEEDUP:
                failures.append(
                    f"{model}/{dataset} K={k}: planner chose 'edges' but "
                    f"the makespan speedup {speedup:.2f}x is below "
                    f"{REQUIRED_SPEEDUP}x")
        rows.append(entry)
    return rows


def run(profile_name: str, scale_override, repeats: int,
        out_path: Path) -> int:
    from repro.gpu.config import v100_config
    from repro.gpu.simulator import GpuSimulator

    profile = PROFILES[profile_name]
    simulator = GpuSimulator(config=v100_config())
    failures: list = []
    skew_rows = bench_skew(simulator, profile, scale_override, repeats,
                           failures)

    if failures:
        print("FAILURES:")
        for failure in failures:
            print(f"  {failure}")
        return 1

    payload = {
        "description": "Skew-aware sharding: each MP workload runs "
                       "unfused on a degree-"
                       "sorted (hubs-first) relabeling of scaled Reddit "
                       "and compares the even-row and edge-balanced "
                       "partitioners at the planner's shard count: "
                       "outputs are verified bit-for-bit against the "
                       "unsharded reference, and the headline speedup "
                       "is the simulated shard makespan (heaviest "
                       "shard + serial merge) that a worker pool or "
                       "multi-SM dispatch realises; wall-clock is "
                       "informational.",
        "profile": profile_name,
        "required_speedup": REQUIRED_SPEEDUP,
        "skew": skew_rows,
    }
    out_path.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {out_path}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--profile", default="ci", choices=sorted(PROFILES))
    parser.add_argument("--scale", type=float, default=None,
                        help="override the profile's dataset scale (the "
                             "committed BENCH_skew_fusion.json uses 0.05)")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--out",
                        default=str(REPO_ROOT / "BENCH_skew_fusion.json"))
    args = parser.parse_args()
    return run(args.profile, args.scale, args.repeats, Path(args.out))


if __name__ == "__main__":
    raise SystemExit(main())

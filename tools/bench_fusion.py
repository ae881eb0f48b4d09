#!/usr/bin/env python3
"""Benchmark plan-level fusion against unfused plan execution.

For each workload this tool builds one pipeline twice — unfused
(``build(..., fuse=False)``) and fused (``build(...)``, the default),
each under its *own* planner-chosen shard policy — asserts
**bit-for-bit output parity**, measures wall-clock and peak traced
memory, and writes ``BENCH_fusion.json`` at the repository root.

Where the win comes from:

* **MP aggregation cells** (SAGE/GIN on Reddit-class graphs): the
  unfused path launches ``indexSelect`` + ``scatter`` with a full
  ``[E, f]`` message matrix materialised in between — hundreds of MB
  at scale, so the scatter re-streams it from DRAM (PR 3's sharding
  mitigates this piecewise, and the planner is allowed to pick that
  mitigation for the unfused baseline).  The fused
  ``fusedGatherScatter`` kernel streams cache-sized destination blocks
  straight from gather into the reduction: one launch, no
  materialisation, peak intermediate memory bounded by the stream
  block.
* **SGEMM-heavy cells** (GCN-SpMM): bias and inter-layer activations
  fold into epilogue-carrying SGEMM launches, eliminating full output
  re-traversals.

Usage::

    PYTHONPATH=src python tools/bench_fusion.py --profile ci   # CI smoke
    PYTHONPATH=src python tools/bench_fusion.py --scale 0.05   # full bench
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import tracemalloc
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np  # noqa: E402

from repro.bench.profiles import PROFILES  # noqa: E402
from repro.core.models import get_model_class  # noqa: E402
from repro.core.models.base import layer_dimensions  # noqa: E402
from repro.datasets import load_dataset  # noqa: E402
from repro.frameworks import PipelineSpec, get_backend  # noqa: E402
from repro.plan import (  # noqa: E402
    GraphStats,
    choose_shards,
    fusion_summary,
)
from repro.plan.sharding import ShardingPolicy  # noqa: E402

#: (model, dataset, compute model) cells.  SAGE/GIN Reddit-MP are the
#: message-matrix workloads fusion targets; GCN-SpMM is the SGEMM-heavy
#: epilogue cell; GCN-MP is the narrow-message cell (its
#: transform-first path aggregates at the output width).
WORKLOADS = (
    ("sage", "reddit", "MP"),
    ("gin", "reddit", "MP"),
    ("gcn", "reddit", "SpMM"),
    ("gcn", "reddit", "MP"),
)


def _best_seconds(fn, repeats: int) -> float:
    fn()  # warm-up: allocator, BLAS thread pools, lazy structures
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _peak_bytes(fn) -> int:
    """Peak traced allocation of one run (numpy buffers included)."""
    tracemalloc.start()
    try:
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return int(peak)


def _build(spec, graph, dims, stats, width_hook, fused: bool):
    """One pipeline, fused or not, under its planner-chosen shard policy."""
    built = get_backend("gsuite").build(spec, graph, fuse=fused)
    shards = choose_shards(dims, stats,
                           formats=list(built.plan.layer_formats),
                           width_hook=width_hook, fused=fused)
    if shards > 1:
        built.configure_sharding(
            ShardingPolicy(num_shards=shards, source="planner"))
    return built, shards


def run(profile_name: str, scale_override, repeats: int,
        out_path: Path) -> int:
    profile = PROFILES[profile_name]
    rows = []
    failures = []
    for model, dataset, compute_model in WORKLOADS:
        scale = scale_override or profile.scale_of(dataset)
        graph = load_dataset(dataset, scale=scale, seed=0)
        spec = PipelineSpec(model=model, compute_model=compute_model,
                            out_features=8)
        cls = get_model_class(model)
        stats = GraphStats.from_graph(graph)
        dims = layer_dimensions(graph.num_features, spec.hidden,
                                spec.out_features, spec.num_layers)

        unfused, unfused_k = _build(
            spec, graph, dims, stats, cls.aggregation_width, fused=False)
        fused, fused_k = _build(
            spec, graph, dims, stats, cls.aggregation_width, fused=True)

        reference = unfused.run()
        fused_out = fused.run()
        if not np.array_equal(fused_out, reference):
            failures.append(f"{model}/{dataset}/{compute_model}: "
                            f"output mismatch")
            continue

        base_s = _best_seconds(unfused.run, repeats)
        fused_s = _best_seconds(fused.run, repeats)
        base_peak = _peak_bytes(unfused.run)
        fused_peak = _peak_bytes(fused.run)
        summary = fusion_summary(fused.plan)

        print(f"{model:5s} {dataset}@{scale:g} {compute_model:4s} "
              f"N={graph.num_nodes} E={graph.num_edges} "
              f"f={graph.num_features}")
        print(f"  unfused (planner K={unfused_k:2d}) {base_s * 1e3:9.1f} ms"
              f"  peak {base_peak / 1e6:8.1f} MB")
        print(f"  fused   (planner K={fused_k:2d}) {fused_s * 1e3:9.1f} ms"
              f"  peak {fused_peak / 1e6:8.1f} MB"
              f"  ({base_s / fused_s:.2f}x)  [outputs bit-identical]")

        rows.append({
            "model": model, "dataset": dataset, "scale": scale,
            "compute_model": compute_model,
            "nodes": graph.num_nodes, "edges": graph.num_edges,
            "features": graph.num_features,
            "planner_shards": {"unfused": unfused_k, "fused": fused_k},
            "fusion": summary,
            "seconds": {"unfused": base_s, "fused": fused_s},
            "peak_bytes": {"unfused": base_peak, "fused": fused_peak},
            "speedup_fused": round(base_s / fused_s, 3),
            "peak_memory_ratio": round(fused_peak / base_peak, 3)
            if base_peak else None,
        })

    if failures:
        print("PARITY FAILURES:")
        for failure in failures:
            print(f"  {failure}")
        return 1

    payload = {
        "description": "Fused vs unfused plan execution, best-of-"
                       f"{repeats} inference seconds (plan already "
                       "built) on the host CPU, each side under its "
                       "own planner-chosen shard count.  MP cells: the "
                       "fusedGatherScatter kernel streams per-edge "
                       "messages through cache-sized destination "
                       "blocks instead of materialising the [E, f] "
                       "matrix between indexSelect and scatter — "
                       "peak_bytes shows the intermediate-memory "
                       "reduction.  SpMM cells: bias/activation fold "
                       "into epilogue-carrying SGEMM launches.  "
                       "Outputs verified bit-for-bit identical on "
                       "every cell.",
        "profile": profile_name,
        "results": rows,
    }
    out_path.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {out_path}")
    wins = [r for r in rows if r["speedup_fused"] >= 1.3]
    print(f"cells with a >= 1.3x fused wall-clock win: "
          f"{len(wins)}/{len(rows)}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--profile", default="ci", choices=sorted(PROFILES))
    parser.add_argument("--scale", type=float, default=None,
                        help="override the profile's dataset scale "
                             "(the committed BENCH_fusion.json uses 0.05)")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--out", default=str(REPO_ROOT / "BENCH_fusion.json"))
    args = parser.parse_args()
    return run(args.profile, args.scale, args.repeats, Path(args.out))


if __name__ == "__main__":
    raise SystemExit(main())

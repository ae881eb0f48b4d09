#!/usr/bin/env python
"""Framework comparison on one dataset — a miniature of Fig. 3 / Fig. 4.

Runs the same GNN function through all four execution paths (PyG-like,
DGL-like, gSuite-MP, gSuite-SpMM), confirms they agree numerically, and
reports end-to-end time plus the per-kernel time split.  Plans are
built with ``fuse=False`` so every path shows the paper's Table II
kernels (a default build fuses ``indexSelect`` + ``scatter`` away on
every path but the PyG-like one).

Run:  python examples/framework_comparison.py [dataset]
"""

import statistics
import sys

import numpy as np

from repro.core.kernels import record_launches
from repro.datasets import load_dataset
from repro.frameworks import PipelineSpec, get_backend, time_end_to_end

VARIANTS = (
    ("PyG", "pyg", "MP"),
    ("DGL", "dgl", "SpMM"),
    ("gSuite-MP", "gsuite", "MP"),
    ("gSuite-SpMM", "gsuite", "SpMM"),
)


def kernel_split(backend, spec, graph) -> str:
    """Per-kernel share of execution time for one built pipeline."""
    pipeline = backend.build(spec, graph, fuse=False)
    with record_launches() as recorder:
        pipeline.run()
    totals = {}
    for launch in recorder.launches:
        totals[launch.kernel] = totals.get(launch.kernel, 0.0) + launch.duration_s
    overall = sum(totals.values()) or 1.0
    return ", ".join(f"{k} {v / overall:.0%}"
                     for k, v in sorted(totals.items(), key=lambda kv: -kv[1]))


def main() -> None:
    dataset = sys.argv[1] if len(sys.argv) > 1 else "cora"
    graph = load_dataset(dataset)
    print(f"GCN on {graph.name}: {graph.num_nodes} nodes, "
          f"{graph.num_edges} edges\n")

    reference = None
    for label, framework, compute_model in VARIANTS:
        backend = get_backend(framework)
        spec = PipelineSpec(model="gcn", compute_model=compute_model, seed=0)
        out = backend.build(spec, graph, fuse=False).run()
        if reference is None:
            reference = out
        agreement = float(np.abs(out - reference).max())
        times = time_end_to_end(backend, spec, graph, repeats=3,
                                fuse=False)
        print(f"{label:12s} {statistics.mean(times) * 1e3:8.2f} ms   "
              f"max|Δ| vs first: {agreement:.1e}")
        print(f"{'':12s} kernels: {kernel_split(backend, spec, graph)}\n")


if __name__ == "__main__":
    main()

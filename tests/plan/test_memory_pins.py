"""Memory is pinned deterministically: ``tracemalloc`` peaks per cell.

``peak_rss_mb`` is host- and allocator-noisy; the ``tracemalloc`` peak
of one fresh (uncached) ``load_dataset`` + build + run reproduces to
the kilobyte.  Each cell's bound is derived from shapes, never
recorded: half of the ``N x F`` float32 matrix a dense ``X`` would
occupy, plus, unfused, twice the ``[E + N, hidden]`` float32 messages
a hidden layer gathers (the messages and their scaled copy).  A dense
``X`` alone breaks every bound (so does the ``N x F`` dense mean
sage's aggregation once held), and the native path never builds
``X``'s dense view.
"""

import tracemalloc

import pytest

from repro.core import GNNPipeline, SuiteConfig
from repro.datasets import load_dataset, loader

CELLS = [("gcn", "MP", "cora"), ("gcn", "MP", "citeseer"),
         ("gcn", "MP", "pubmed"), ("gcn", "SpMM", "cora"),
         ("sage", "MP", "pubmed")]


@pytest.mark.parametrize("fuse", ["auto", "off"])
@pytest.mark.parametrize("model, cm, dataset", CELLS)
def test_load_build_run_peaks_below_a_shape_bound(model, cm, dataset, fuse,
                                                  monkeypatch):
    monkeypatch.setattr(loader, "_CACHE", {})     # a fresh load
    config = SuiteConfig(dataset=dataset, model=model, compute_model=cm,
                         fuse=fuse, seed=5)
    tracemalloc.start()
    try:
        graph = load_dataset(dataset)
        pipeline = GNNPipeline(config, graph=graph)
        pipeline.build().run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    n, f = graph.num_nodes, graph.num_features
    bound = n * f * 4 / 2
    if fuse == "off":
        bound += 2 * (graph.num_edges + n) * pipeline.spec.hidden * 4
    assert n * f * 4 > bound                      # a dense X breaks it
    assert peak <= bound, (peak, bound)
    assert not graph.dense_view_built

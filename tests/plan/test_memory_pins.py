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

gin/reddit@0.02/SpMM stores a dense 602-wide ``X`` and multiplies it
by its aggregation CSR through the row-parallel vendor product, whose
ranges write views of one preallocated output: its pins bound the
peak by what the shapes keep live, and the split product alone by its
own output.  So does its layer-0 transform ``X @ W1``, split the same
way through ``np.matmul`` into row slices.
"""

import tracemalloc

import numpy as np
import pytest

from repro.core import GNNPipeline, SuiteConfig
from repro.datasets import load_dataset, loader
from repro.graph import formats
from repro.graph.formats import (_ranges, _row_ranges, _split_product,
                                 row_parallel_product)

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


def _traced_peak(build_and_run):
    tracemalloc.start()
    try:
        result = build_and_run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


@pytest.mark.parametrize("fuse", ["auto", "off"])
def test_gin_reddit_peaks_below_a_shape_bound(fuse, monkeypatch):
    """1.25 x (operands + the ``N x F`` intermediates alive at once).

    The operands are ``X``, the edge index, the aggregation CSR
    (``E + N`` entries: int64 and SciPy's int32 column ids, float32
    values) and the weights.  Alive at once: the ``spmm`` product and
    the first transform's output, plus, unfused, its separate
    activation's output.  One more ``N x F`` array — a copy of ``X`` or
    of the product — breaks the bound.
    """
    monkeypatch.setattr(loader, "_CACHE", {})
    config = SuiteConfig(dataset="reddit", scale=0.02, model="gin",
                         compute_model="SpMM", fuse=fuse, seed=5)

    def build_and_run():
        graph = load_dataset("reddit", scale=0.02)
        built = GNNPipeline(config, graph=graph).build()
        built.run()
        return graph, built

    (graph, built), peak = _traced_peak(build_and_run)
    n, f, e = graph.num_nodes, graph.num_features, graph.num_edges
    operands = (n * f * 4 + graph.edge_index.nbytes + (e + n) * 16
                + (n + 1) * 12
                + sum(w.nbytes for w in built.plan.constants.values()))
    alive = 2 if fuse == "auto" else 3
    bound = 1.25 * (operands + alive * n * f * 4)
    assert peak <= bound, (peak, bound)
    assert peak + n * f * 4 > bound, (peak, bound)


def test_the_split_product_allocates_its_output_once():
    """Split in two, the layer-0 product over reddit's ``X`` allocates
    its ``N x F`` output and nothing of that size besides: the operand
    is read in place and every range writes a view."""
    graph = load_dataset("reddit", scale=0.02)
    a, x = graph.adjacency_csr()._vendor(), graph.features
    ranges = _row_ranges(a.indptr, 2)
    out, peak = _traced_peak(lambda: _split_product(a, x, ranges))
    assert len(ranges) == 2
    assert out.nbytes <= peak <= out.nbytes + (1 << 20), (peak, out.nbytes)


def test_the_dense_split_allocates_its_output_once(monkeypatch):
    """Split in two, gin/reddit's layer-0 transform (4,660 x 602 x 602)
    allocates its ``N x F`` output and nothing of that size besides:
    neither operand is copied and every range writes a view."""
    monkeypatch.setattr(formats, "_cpu_count", lambda: 2)
    a = load_dataset("reddit", scale=0.02).features
    b = np.random.default_rng(0).standard_normal(
        (a.shape[1], a.shape[1])).astype(np.float32)
    assert len(_ranges(a, b)) == 2
    out, peak = _traced_peak(lambda: row_parallel_product(a, b))
    assert out.shape == (a.shape[0], b.shape[1])
    assert out.nbytes <= peak <= out.nbytes + (1 << 20), (peak, out.nbytes)

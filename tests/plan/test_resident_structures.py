"""Graph-resident structures: built once per graph, owned by the graph.

No wall-clock here: builders are spied and counted, outputs and launch
fingerprints compared run to run.
"""

import gc
import weakref
from importlib import import_module

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core import GNNPipeline, SuiteConfig
from repro.core.kernels import record_launches
from repro.graph import Graph, add_self_loops, gcn_edge_weights
from repro.graph.formats import CSRMatrix
from strategies import copy_graph

# (model, compute model, fuse) -> the builders that run and how often.
# ``reduction_structure`` and ``aggregation_operator`` count every build,
# resident or on the spot (max / min and SpMM never build an operator);
# ``row_sparse`` is the scan behind ``Graph.feature_rows``, which every
# product over the graph's own ``X`` asks for — a first-layer sgemm, a
# fused aggregation, an spmm — once per graph (a declined matrix is
# remembered too).  ``spgemm`` counts ``CSRMatrix.spgemm`` products:
# gcn/SpMM's propagation chain runs its two on the first run only.
CELLS = {
    ("sage", "MP", "auto"): {
        "add_self_loops": 1, "reduction_structure": 1,
        "aggregation_operator": 1, "row_sparse": 1},
    ("gcn", "MP", "off"): {
        "add_self_loops": 1, "gcn_edge_weights": 1,
        "reduction_structure": 1, "aggregation_operator": 1,
        "row_sparse": 1},
    ("gin", "SpMM", "auto"): {"gin_aggregate_matrix": 1, "row_sparse": 1},
    ("gcn", "SpMM", "auto"): {
        "add_self_loops": 1, "degree_half_inverse_csr": 1,
        "adjacency_csr": 1, "row_sparse": 1, "spgemm": 2},
}

_BUILDERS = {
    "add_self_loops": ("repro.graph.ops", "_add_self_loops"),
    "gcn_edge_weights": ("repro.graph.ops", "_gcn_edge_weights"),
    "gin_aggregate_matrix": ("repro.core.models.gin",
                             "_gin_aggregate_matrix"),
    "mean_adjacency_matrix": ("repro.core.models.sage",
                              "_mean_adjacency_matrix"),
    "degree_half_inverse_csr": ("repro.core.models.gcn",
                                "_degree_half_inverse_csr"),
    "row_sparse": ("repro.graph.graph", "_row_sparse"),
}


def _graph(seed=5, nodes=60, edges=400, width=6):
    rng = np.random.default_rng(seed)
    return Graph(rng.integers(0, nodes, size=(2, edges)),
                 features=rng.standard_normal(
                     (nodes, width)).astype(np.float32),
                 name=f"resident-{seed}")


@pytest.fixture
def builds(monkeypatch):
    """Call counts of every structure builder, by name."""
    calls = {}

    def spy(name, fn):
        def counted(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)
        return counted

    for name, (module, attr) in _BUILDERS.items():
        mod = import_module(module)
        monkeypatch.setattr(mod, attr, spy(name, getattr(mod, attr)))
    monkeypatch.setattr(Graph, "adjacency_csr",
                        spy("adjacency_csr", Graph.adjacency_csr))
    monkeypatch.setattr(CSRMatrix, "spgemm", spy("spgemm", CSRMatrix.spgemm))
    # The executor and the kernels each hold a reference to the builders.
    scatter_mod = import_module("repro.core.kernels.scatter")
    for name in ("reduction_structure", "aggregation_operator"):
        counted = spy(name, getattr(scatter_mod, name))
        monkeypatch.setattr(scatter_mod, name, counted)
        monkeypatch.setattr(import_module("repro.plan.executor"), name,
                            counted)
    return calls


def _run(config, graph):
    with record_launches() as recorder:
        output = GNNPipeline(config, graph=graph).build().run()
    return output, recorder.launches


@pytest.mark.parametrize("cell", sorted(CELLS), ids="-".join)
def test_second_run_builds_nothing(cell, builds):
    model, compute_model, fuse = cell
    config = SuiteConfig(model=model, compute_model=compute_model, fuse=fuse,
                         out_features=3)
    graph = _graph()
    first, first_launches = _run(config, graph)
    assert builds == CELLS[cell]
    second, second_launches = _run(config, graph)
    assert builds == CELLS[cell]                 # every structure: once
    assert np.array_equal(first, second)
    assert [l.fingerprint() for l in first_launches] \
        == [l.fingerprint() for l in second_launches]
    kernels = [l.kernel for l in second_launches]
    if cell == ("sage", "MP", "auto"):
        assert "fusedGatherScatter" in kernels
    if cell == ("gcn", "MP", "off"):
        assert "scatter" in kernels and "fusedGatherScatter" not in kernels
    if cell == ("gcn", "SpMM", "auto"):
        # The normalisation chain is resident: its products ran once
        # (``spgemm`` above), yet every run records both launches, the
        # second from the resident matrices at the time it spent on them.
        first_chain, second_chain = (
            [l for l in launches if l.kernel == "SpGEMM"]
            for launches in (first_launches, second_launches))
        assert len(first_chain) == len(second_chain) == 2
        assert [l.fingerprint() for l in first_chain] \
            == [l.fingerprint() for l in second_chain]
        assert [l.duration_s for l in second_chain] == [0.0, 0.0]


_GCN_SPMM = SuiteConfig(model="gcn", compute_model="SpMM", out_features=3)


def test_unrecorded_first_build_records_fresh_fingerprints():
    """A chain built with no recorder active still records, on a later
    traced run, the launches a fresh graph's first traced run records."""
    warmed = _graph()
    GNNPipeline(_GCN_SPMM, graph=warmed).build().run()
    resident, resident_launches = _run(_GCN_SPMM, warmed)
    fresh, fresh_launches = _run(_GCN_SPMM, _graph())
    assert np.array_equal(resident, fresh)
    assert [l.fingerprint() for l in resident_launches] \
        == [l.fingerprint() for l in fresh_launches]
    assert sum(l.kernel == "SpGEMM" for l in resident_launches) == 2


def test_propagation_matrix_is_the_plans_operand(monkeypatch):
    """Every spmm of a gcn/SpMM run multiplies the one graph-resident
    ``D^-1/2 (A+I) D^-1/2``, the matrix ``gcn_propagation_matrix``
    hands back for that graph."""
    from repro.core.models.gcn import gcn_propagation_matrix
    executor = import_module("repro.plan.executor")
    spmm = executor.spmm
    read = []

    def spy(matrix, *args, **kwargs):
        read.append(matrix)
        return spmm(matrix, *args, **kwargs)

    monkeypatch.setattr(executor, "spmm", spy)
    graph = _graph()
    GNNPipeline(_GCN_SPMM, graph=graph).build().run()
    assert read and all(matrix is read[0] for matrix in read)
    assert gcn_propagation_matrix(graph) is read[0]


def test_dgl_gcn_normalizes_every_run(monkeypatch):
    """The ``dgl_*`` kinds model per-run framework overhead (Fig. 3):
    DGL-like gcn/SpMM builds its normalised adjacency on every run."""
    dgl_like = import_module("repro.frameworks.dgl_like")
    calls = []
    normalized = dgl_like.normalized_adjacency

    def counted(graph, *args, **kwargs):
        calls.append(graph)
        return normalized(graph, *args, **kwargs)

    monkeypatch.setattr(dgl_like, "normalized_adjacency", counted)
    config = _GCN_SPMM.with_overrides(framework="dgl")
    graph = _graph()
    first = GNNPipeline(config, graph=graph).build().run()
    assert len(calls) == 1
    second = GNNPipeline(config, graph=graph).build().run()
    assert len(calls) == 2
    assert np.array_equal(first, second)


def test_structures_die_with_their_graph():
    graph = _graph()
    for model, compute_model, fuse in CELLS:
        GNNPipeline(SuiteConfig(model=model, compute_model=compute_model,
                                fuse=fuse, out_features=3),
                    graph=graph).build().run()
    assert graph._structures
    looped = weakref.ref(add_self_loops(graph))
    ref = weakref.ref(graph)
    del graph
    gc.collect()
    assert ref() is None
    assert looped() is None


def test_resident_arrays_are_read_only():
    graph = _graph()
    GNNPipeline(SuiteConfig(model="gcn", compute_model="MP", fuse="off",
                            out_features=3), graph=graph).build().run()
    edge_index, weights = gcn_edge_weights(graph)
    structure = graph._structures[
        ("reduction_structure", "gcn_edge_weights", 1)]
    operator = graph._structures[
        ("aggregation_operator", ("gcn_edge_weights", 1))]
    for array in (edge_index, weights, graph.in_degrees(),
                  add_self_loops(graph).edge_index, *structure,
                  operator.data, operator.indices, operator.indptr):
        with pytest.raises(ValueError):
            array[0] = 0


def test_operator_keys_name_every_operand():
    """One operator per (dst, src[, scale]) endpoint triple; an operand
    that is not a resident endpoint output (PyG's per-forward
    ``gcn_norm``) keeps the operator per call."""
    expected = {
        ("gsuite", "gcn"): (("gcn_edge_weights", 1), ("gcn_edge_weights", 0),
                            ("gcn_edge_weights", 2)),
        ("gsuite", "sage"): (("self_loop_endpoints", 1),
                             ("self_loop_endpoints", 0)),
        ("gsuite", "gin"): (("edge_endpoints", 1), ("edge_endpoints", 0)),
        ("pyg", "gcn"): None,
    }
    for (framework, model), operands in expected.items():
        graph = _graph()
        GNNPipeline(SuiteConfig(model=model, compute_model="MP",
                                framework=framework, out_features=3),
                    graph=graph).build().run()
        keys = [key for key in graph._structures
                if key[0] == "aggregation_operator"]
        assert keys == ([] if operands is None
                        else [("aggregation_operator",) + operands]), model


def test_memo_keys_never_capture_features():
    graph = _graph()
    for model, compute_model, fuse in CELLS:
        GNNPipeline(SuiteConfig(model=model, compute_model=compute_model,
                                fuse=fuse, out_features=3),
                    graph=graph).build().run()

    def leaves(key):
        return [leaf for part in key for leaf in leaves(part)] \
            if isinstance(key, tuple) else [key]

    for key in graph._structures:
        assert all(isinstance(leaf, (str, int, float))
                   for leaf in leaves(key)), key


# -- the feature-matrix entry of the memo ------------------------------------

def _bag_of_words(seed=7, nodes=50, width=64):
    """A graph whose features are ~3 % non-zero: kept row-sparse."""
    rng = np.random.default_rng(seed)
    features = np.where(rng.random((nodes, width)) < 0.03,
                        rng.standard_normal((nodes, width)),
                        0.0).astype(np.float32)
    return Graph(rng.integers(0, nodes, size=(2, 300)), features=features,
                 name=f"bow-{seed}")


_GCN = SuiteConfig(model="gcn", compute_model="MP", out_features=3)


def _rows_seen(monkeypatch):
    """Every row-sparse ``a`` the executor hands to ``sgemm`` (``None``
    for a dense one)."""
    executor = import_module("repro.plan.executor")
    sgemm = executor.sgemm
    seen = []

    def spy(a, *args, **kwargs):
        seen.append(a if sp.issparse(a) else None)
        return sgemm(a, *args, **kwargs)

    monkeypatch.setattr(executor, "sgemm", spy)
    return seen


def test_first_layer_reads_the_resident_rows(builds, monkeypatch):
    seen = _rows_seen(monkeypatch)
    graph = _bag_of_words()
    first, _ = _run(_GCN, graph)
    second, _ = _run(_GCN, graph)
    assert builds["row_sparse"] == 1
    rows = graph.feature_rows(graph.features)
    assert rows is not None and rows.nnz == np.count_nonzero(graph.features)
    # Layer 0 multiplies through the structure, the hidden layer densely.
    assert [r is rows for r in seen] == [True, False] * 2
    assert seen[1] is None
    assert np.array_equal(first, second)


def test_features_are_read_only_once_a_run_has_read_them():
    graph = _bag_of_words()
    graph.features[0, 0] = 1.0                    # still a plain array
    _run(_GCN, graph)
    with pytest.raises(ValueError):
        graph.features[0, 0] = 2.0
    rows = graph.feature_rows(graph.features)
    for array in (rows.data, rows.indices, rows.indptr):
        with pytest.raises(ValueError):
            array[0] = 0


def test_rebound_features_never_read_a_stale_structure(monkeypatch):
    seen = _rows_seen(monkeypatch)
    graph = _bag_of_words()
    _run(_GCN, graph)
    stale = seen[0]
    replacement = _bag_of_words(seed=8).features
    graph.features = replacement
    output, _ = _run(_GCN, graph)
    assert seen[2] is not stale and seen[2] is not None
    assert seen[2].nnz == np.count_nonzero(replacement)
    fresh = Graph(graph.edge_index, features=replacement.copy())
    assert np.array_equal(output, _run(_GCN, fresh)[0])


def test_run_with_other_features_takes_the_dense_route(monkeypatch):
    """``run(features=...)`` has no resident operand, however equal the
    array: it multiplies densely and agrees with the row-sparse run to
    float32 reassociation (docs/architecture.md)."""
    seen = _rows_seen(monkeypatch)
    graph = _bag_of_words()
    pipeline = GNNPipeline(_GCN, graph=graph).build()
    resident = pipeline.run()
    passed = pipeline.run(graph.features.copy())
    assert seen[0] is not None and seen[2] is None
    assert np.allclose(passed, resident, rtol=1e-4, atol=1e-6)


def test_copies_start_with_an_empty_memo():
    graph = _bag_of_words()
    _run(_GCN, graph)
    for other in (copy_graph(graph),
                  Graph(graph.edge_index, features=graph.features.copy())):
        assert not other._structures
        other.features[0, 0] = 5.0                # its own, writable
        assert graph.features[0, 0] != 5.0


# -- aggregations over the feature matrix -------------------------------------

def _routes_taken(monkeypatch):
    """Every answer ``takes_row_sparse`` gives the aggregation kernels."""
    answers = []
    for name in ("repro.core.kernels.scatter", "repro.core.kernels.sparse"):
        module = import_module(name)
        rule = module.takes_row_sparse

        def spy(operator, rows, rule=rule):
            answers.append(rule(operator, rows))
            return answers[-1]

        monkeypatch.setattr(module, "takes_row_sparse", spy)
    return answers


def _citation(seed=1):
    """A fresh cora sample: 1,433 columns at 1 %, an empty memo."""
    from repro.datasets import load_dataset
    return copy_graph(load_dataset("cora", scale=0.1, seed=seed))


@pytest.mark.parametrize("model, compute_model",
                         [("sage", "MP"), ("gcn", "SpMM")])
def test_launch_records_are_blind_to_the_aggregation_route(
        model, compute_model, monkeypatch):
    """``record()`` over the resident rows and ``run(features=copy)``
    (no resident form: the dense route) emit the same launches."""
    taken = _routes_taken(monkeypatch)
    graph = _citation()
    pipeline = GNNPipeline(SuiteConfig(model=model,
                                       compute_model=compute_model,
                                       out_features=3), graph=graph)
    resident = pipeline.record()
    assert taken == [True, False]        # layer 0 reads X, layer 1 not
    dense = pipeline.record(graph.features.copy())
    assert taken[2:] == [False, False]
    assert [l.fingerprint() for l in resident.launches] \
        == [l.fingerprint() for l in dense.launches]
    if compute_model == "SpMM":
        # The spmm is gcn/SpMM's only reader of X, and its route is
        # exact: its product is the dense route's bit for bit.  The
        # resident run hands that product to the narrowing W row-sparse,
        # so the output agrees with the dense run to float32
        # reassociation.
        executor = import_module("repro.plan.executor")
        spmm, products = executor.spmm, []
        monkeypatch.setattr(executor, "spmm", lambda *a, **k: products.append(
            spmm(*a, **k)) or products[-1])
        built = pipeline.build()
        kept, dense = built.run(), built.run(graph.features.copy())
        assert sp.issparse(products[0]) and not sp.issparse(products[2])
        assert np.array_equal(products[0].toarray(), products[2])
        assert np.allclose(kept, dense, rtol=1e-5, atol=1e-6)


def test_batched_aggregation_never_scans_the_stacked_copy(monkeypatch):
    """A packed aggregation over ``X`` reads the members' resident rows
    row-stacked, or stays dense when a member has none; the packed
    feature copy is never scanned, and members born row-sparse are
    never scanned at all."""
    from repro.frameworks import PipelineSpec, get_backend
    from repro.graph import BatchedGraph

    graph_module = import_module("repro.graph.graph")
    scan = graph_module._row_sparse
    scanned = []

    def counted(x):
        scanned.append(x)
        return scan(x)

    monkeypatch.setattr(graph_module, "_row_sparse", counted)
    taken = _routes_taken(monkeypatch)
    spec = PipelineSpec(model="sage", compute_model="MP", seed=5)
    born = [_citation(seed) for seed in (1, 2)]
    get_backend("gsuite").build(spec, BatchedGraph(born)).run()
    assert scanned == [] and taken[0] is True
    del taken[:]
    # Dense-backed members: each is scanned once, for its own memo.
    members = [Graph(m.edge_index, features=m.features.copy(), name=m.name)
               for m in born]
    batched = BatchedGraph(members)
    blocks = batched.unpack(get_backend("gsuite").build(spec, batched).run())
    assert [id(x) for x in scanned] == [id(m.features) for m in members]
    assert taken[0] is True
    for block, member in zip(blocks, members):
        assert np.array_equal(block,
                              get_backend("gsuite").build(spec, member).run())
    assert len(scanned) == 2             # the solo runs read the memos

    # One member without a resident form: the aggregation stays dense.
    dense_member = _citation(3)
    dense_member.features = np.ones_like(dense_member.features)
    mixed = BatchedGraph([_citation(4), dense_member])
    del scanned[:], taken[:]
    get_backend("gsuite").build(spec, mixed).run()
    assert all(x is not mixed.features for x in scanned)
    # Only the dense-backed member is scanned: the other is born
    # row-sparse.
    assert [id(x) for x in scanned] == [id(dense_member.features)]
    assert taken[0] is False


# -- unfused gathers over the feature matrix ----------------------------------

def _aggregations_seen(monkeypatch):
    """Whether each gather the executor launches was handed ``rows``,
    and every aggregated answer, keyed by ``(kernel, tag)``."""
    executor = import_module("repro.plan.executor")
    gathers, answers = [], {}

    def gather(*args, rows=None, tag="", **kwargs):
        gathers.append((tag, rows is not None))
        return index_select(*args, rows=rows, tag=tag, **kwargs)

    def answered(kernel, fn):
        def spy(*args, tag="", **kwargs):
            answers[(kernel, tag)] = fn(*args, tag=tag, **kwargs)
            return answers[(kernel, tag)]
        return spy

    index_select = executor.index_select
    monkeypatch.setattr(executor, "index_select", gather)
    monkeypatch.setattr(executor, "scatter",
                        answered("scatter", executor.scatter))
    monkeypatch.setattr(executor, "fused_gather_scatter",
                        answered("fusedGatherScatter",
                                 executor.fused_gather_scatter))
    return gathers, answers


@pytest.mark.parametrize("model", ["sage", "gin"])
def test_unfused_layer0_gathers_the_resident_rows(model, monkeypatch):
    """``test_parity``'s graph and spec: its oracle bound holds this
    route's plan to the float64 model, and here the route's aggregate
    is the fused plan's, bit for bit."""
    from repro.datasets import load_dataset
    from repro.frameworks import PipelineSpec, get_backend

    gathers, answers = _aggregations_seen(monkeypatch)
    graph = copy_graph(load_dataset("cora", scale=0.15, seed=1))
    spec = PipelineSpec(model=model, compute_model="MP", seed=5)
    unfused = get_backend("gsuite").build(spec, graph, fuse=False).run()
    fused = get_backend("gsuite").build(spec, graph).run()
    assert gathers == [(f"{model}-l0", True), (f"{model}-l1", False)]
    unfused_sum = answers[("scatter", f"{model}-l0")]
    fused_sum = answers[("fusedGatherScatter", f"{model}-l0")]
    # sage's mean reaches its narrowing W2 as the SpGEMM product (a
    # CSR), gin's sum its ``combine`` densely: compared bitwise either
    # way, stored structure and order included.
    assert sp.issparse(unfused_sum) == sp.issparse(fused_sum) \
        == (model == "sage")
    assert _bitwise(unfused_sum, fused_sum)
    assert np.array_equal(unfused, fused)


def _bitwise(a, b) -> bool:
    """Equal bit for bit: dtype, shape and values of two arrays, or of
    two CSRs also their stored entries in stored order."""
    if a.dtype != b.dtype or a.shape != b.shape:
        return False
    if not sp.issparse(a):
        return np.array_equal(a, b)
    return sp.issparse(b) and all(
        np.array_equal(x, y) for x, y in ((a.indptr, b.indptr),
                                          (a.indices, b.indices),
                                          (a.data.view(np.uint32),
                                           b.data.view(np.uint32))))


def _x_aggregation(reduces, scaled=False):
    """``X`` gathered once and reduced by one scatter per entry of
    ``reduces`` (two entries: two consumers of the messages); a scaled
    gather weighs each message by its GCN edge weight."""
    from repro.plan import PlanBuilder
    builder = PlanBuilder("t", "t")
    x = builder.input("X")
    endpoints = (("src", "edge"), ("dst", "edge"))
    weight = None
    if scaled:
        src, dst, weight = builder.normalize(
            "gcn_edge_weights", outputs=endpoints + (("weight", "vec"),))
    else:
        src, dst = builder.normalize("edge_endpoints", outputs=endpoints)
    messages = builder.gather(x, src, scale=weight, tag="t")
    outs = [builder.scatter_reduce(messages, dst, reduce=reduce, tag="t")
            for reduce in reduces]
    return builder.build(outs[0] if len(outs) == 1
                         else builder.elementwise("add", *outs))


@pytest.mark.parametrize("reduces, scaled, taken", [
    (("sum",), False, True), (("mean",), False, True),
    (("sum",), True, True), (("mean", "mean"), False, False),
    (("sum", "mean"), False, False)])
def test_only_a_lone_sum_mean_scatter_gathers_row_sparse(
        reduces, scaled, taken, monkeypatch):
    """The rule's answer for the gather is the route it takes, and
    ``gsuite plan`` reports it; either way the output is the dense
    route's (``run`` over a copy of ``X``), bit for bit."""
    from repro.plan import PlanExecutor, describe_features

    gathers, _ = _aggregations_seen(monkeypatch)
    graph = _citation()
    plan = _x_aggregation(reduces, scaled)
    routed = PlanExecutor().run(plan, graph, {"X": graph.features})
    dense = PlanExecutor().run(plan, graph, {"X": graph.features.copy()})
    assert gathers == [("t", taken), ("t", False)]
    assert np.array_equal(routed, dense)
    report = describe_features(plan, graph).splitlines()[1]
    assert report.startswith("  indexSelect t: " + (
        "row-sparse (" if taken else "dense ("))


def test_unfused_message_passing_never_holds_the_dense_messages():
    """One unfused sage run over a bag-of-words graph peaks below the
    ``[E, F]`` float32 message matrix the dense gather would hold."""
    import tracemalloc

    from repro.frameworks import PipelineSpec, get_backend

    graph = _citation()
    messages_bytes = add_self_loops(graph).num_edges \
        * graph.num_features * 4
    built = get_backend("gsuite").build(
        PipelineSpec(model="sage", compute_model="MP", seed=5), graph,
        fuse=False)
    tracemalloc.start()
    try:
        built.run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < messages_bytes

"""The sum / mean of ``X`` reaches its narrowing ``sgemm`` row-sparse.

A sum / mean over the resident rows of ``X`` is an SpGEMM product a few
per cent non-zero.  The executor hands it to its consumer as that CSR
when every consumer is an ``SGEMM`` reading it as ``a`` through a
weight that narrows (``m < k``), the value is not the plan output, and
the product is no denser than ``X`` is kept (``row_sparse_enough``).
Fused and unfused plans hand on the same product and a batched member's
launch reads what its solo run reads, so both pairs stay bitwise; the
transform agrees with the dense route to float32 reassociation, within
the oracle bound.  Every declined case is the dense route bit for bit.
"""

from contextlib import contextmanager

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given
from hypothesis import strategies as st

from oracle import layer_ratios, reference_model
from repro.core.kernels import fused_gather_scatter, record_launches, \
    scatter, spmm
from repro.datasets import load_dataset
from repro.frameworks import PipelineSpec, get_backend
from repro.graph import BatchedGraph, Graph
from repro.plan import PlanBuilder, PlanExecutor, describe_features
from strategies import PARITY_SETTINGS, STANDARD_SETTINGS, copy_graph, \
    lowered, power_law_graphs

_SAGE = PipelineSpec(model="sage", compute_model="MP", seed=5)


@contextmanager
def _operands_read():
    """``(tag, a is row-sparse)`` for every ``sgemm`` the executor
    launches."""
    from repro.plan import executor
    sgemm, seen = executor.sgemm, []

    def spy(a, *args, tag="", **kwargs):
        seen.append((tag.split("@")[0], sp.issparse(a)))
        return sgemm(a, *args, tag=tag, **kwargs)

    executor.sgemm = spy
    try:
        yield seen
    finally:
        executor.sgemm = sgemm


@contextmanager
def _no_hand_off():
    """Every aggregate densified, as before the hand-off existed."""
    why = PlanExecutor._why_dense
    PlanExecutor._why_dense = lambda self, op, env: "off"
    try:
        yield
    finally:
        PlanExecutor._why_dense = why


@st.composite
def _bag_of_words(draw, width=0):
    """A power-law graph whose ``X`` keeps 1-3 entries per row of
    400-640: kept row-sparse, aggregated over the rows (``k / (1 +
    row_nnz) >= 100 >= 64``) into a product of at most 4.5 % (in-degree
    <= 5, plus the self-loop), so every rule holds."""
    width = width or draw(st.integers(400, 640))
    return draw(power_law_graphs(width=width,
                                 row_nnz=draw(st.integers(1, 3))))


def _run(graph, spec=_SAGE, fuse=True):
    return get_backend("gsuite").build(spec, graph, fuse=fuse).run()


# -- the pairs stay bitwise with the hand-off taken ---------------------------

@PARITY_SETTINGS
@given(graph=_bag_of_words(), seed=st.integers(0, 2**16))
def test_fused_equals_unfused_with_the_hand_off(graph, seed):
    spec = PipelineSpec(model="sage", compute_model="MP", seed=seed)
    with _operands_read() as seen:
        fused = _run(graph, spec)
        unfused = _run(graph, spec, fuse=False)
    # X, then the mean, each row-sparse into layer 0; layer 1 dense.
    assert seen == [("sage-l0", True)] * 2 + [("sage-l1", False)] * 2 \
        + [("sage-l0", True)] * 2 + [("sage-l1", False)] * 2
    assert np.array_equal(fused, unfused)


@PARITY_SETTINGS
@given(graph=_bag_of_words(), layers=st.integers(1, 3),
       seed=st.integers(0, 2**16))
def test_hand_off_keeps_to_the_oracle(graph, layers, seed):
    spec = PipelineSpec(model="sage", compute_model="MP", num_layers=layers,
                        seed=seed)
    with _operands_read() as seen:
        ratios = layer_ratios(lowered("gsuite", spec, graph),
                              reference_model(spec, graph))
    assert seen[:2] == [("sage-l0", True)] * 2
    assert max(ratios) <= 1.0, ratios


@st.composite
def _mixed_members(draw):
    """2-3 members of one width, each ``X`` bag-of-words (hand-off
    taken), dense (no resident rows), or 20 entries a row (rows kept,
    but the mean is multiplied dense: ``k / 21 < 64``)."""
    width = draw(st.integers(400, 640))
    members = []
    for _ in range(draw(st.integers(2, 3))):
        row_nnz = draw(st.sampled_from((0, 1, 2, 3, 20)))
        members.append(draw(power_law_graphs(max_nodes=24, width=width,
                                             row_nnz=row_nnz)))
    return members


@PARITY_SETTINGS
@given(members=_mixed_members(), fuse=st.booleans())
def test_batched_members_read_what_their_solo_runs_read(members, fuse):
    """However the packed aggregate was taken, each member's launch
    reads its solo run's form of it (its own SpGEMM product or dense),
    so the packed run unpacks to the solo outputs bit for bit."""
    batched = BatchedGraph(members)
    with _operands_read() as packed:
        blocks = batched.unpack(_run(batched, fuse=fuse))
    for i, (block, member) in enumerate(zip(blocks, members)):
        with _operands_read() as solo:
            alone = _run(member, fuse=fuse)
        assert packed[i::len(members)] == solo
        assert np.array_equal(block, alone)


# -- declined cases: dense, and the dense route bit for bit --------------------

def _too_dense_graph():
    """One entry per row of 160 (kept, ratio 80 >= 64), but 20 in-edges
    a node: the mean stores 10.6 % of its entries, above 1/16."""
    rng = np.random.default_rng(3)
    n, k = 64, 160
    features = np.zeros((n, k), dtype=np.float32)
    features[np.arange(n), rng.integers(0, k, n)] = \
        rng.standard_normal(n).astype(np.float32) + 3.0
    dst = np.repeat(np.arange(n), 20)
    return Graph(np.vstack([rng.integers(0, n, dst.size), dst]),
                 features=features, name="too-dense")


def _mean_of_x(consumers):
    """A mean of ``X`` transformed by a narrowing ``W``, and then by
    ``consumers``: ``"relu"`` also reads the mean through an activation
    (a second, non-``SGEMM`` consumer); ``"runtime"`` transforms it by
    ``relu(W)``, a weight the walk computes."""
    rng = np.random.default_rng(4)
    builder = PlanBuilder("t", "t")
    x = builder.input("X")
    src, dst = builder.normalize("self_loop_endpoints",
                                 outputs=(("src", "edge"), ("dst", "edge")))
    mean = builder.scatter_reduce(builder.gather(x, src, tag="t"), dst,
                                  reduce="mean", tag="t")
    w = builder.constant(rng.standard_normal((1433, 4)).astype(np.float32),
                         name="W")
    if consumers == "runtime":
        return builder.build(builder.sgemm(
            mean, builder.activation(w, "relu"), tag="t"))
    return builder.build(builder.elementwise(
        "add", builder.sgemm(mean, w, tag="t"),
        builder.sgemm(builder.activation(mean, "relu"), w, tag="t")))


def _cora():
    return copy_graph(load_dataset("cora", scale=0.1, seed=1))


_DECLINED = {
    "square W1": (_cora, PipelineSpec(model="gin", compute_model="SpMM",
                                      seed=5),
                  "  sgemm gin-l0 (aggregate of X): dense "
                  "(square: 1433 → 1433)"),
    "combine consumer": (_cora, PipelineSpec(model="gin",
                                             compute_model="MP", seed=5),
                         None),
    "too dense": (_too_dense_graph, _SAGE,
                  "  sgemm sage-l0 (aggregate of X): dense "
                  "(product nnz/size 10.61 % > 1/16)"),
}


@pytest.mark.parametrize("fuse", [True, False])
@pytest.mark.parametrize("case", sorted(_DECLINED))
def test_declined_aggregates_stay_dense_and_bitwise(case, fuse):
    make_graph, spec, report = _DECLINED[case]
    graph = make_graph()
    with _operands_read() as seen:
        kept = _run(graph, spec, fuse)
    with _no_hand_off(), _operands_read() as seen_before:
        dense = _run(graph, spec, fuse)
    assert seen == seen_before         # only X itself is read row-sparse
    assert np.array_equal(kept, dense)
    lines = [line for line in describe_features(
        get_backend("gsuite").build(spec, graph, fuse=fuse).plan,
        graph).splitlines() if "(aggregate of X)" in line]
    assert lines == ([report] if report else [])


@pytest.mark.parametrize("consumers, why", [
    ("relu", "non-SGEMM consumer"), ("runtime", "runtime weight")])
def test_other_consumers_keep_the_aggregate_dense(consumers, why):
    graph = _cora()
    plan = _mean_of_x(consumers)
    with _operands_read() as seen:
        kept = PlanExecutor().run(plan, graph, {"X": graph.features})
    with _no_hand_off():
        dense = PlanExecutor().run(plan, graph, {"X": graph.features})
    assert seen and not any(sparse for _, sparse in seen)
    assert np.array_equal(kept, dense)
    assert describe_features(plan, graph).splitlines()[2:] == [
        f"  sgemm t (aggregate of X): dense ({why})"]


# -- the kernels: the product handed on as it is -------------------------------

@STANDARD_SETTINGS
@given(graph=_bag_of_words(width=400), reduce=st.sampled_from(("sum",
                                                                "mean")))
def test_kept_products_are_the_dense_results(graph, reduce):
    """Asked to keep it, each aggregation kernel returns its product as
    a float32 CSR equal to its dense result, and records the same
    launch."""
    x = graph.features
    rows = graph.feature_rows(x)
    src, dst, n = graph.src, graph.dst, graph.num_nodes
    adjacency = graph.adjacency_csr()
    calls = {
        "fused": lambda keep: fused_gather_scatter(
            x, src, dst, n, reduce=reduce, rows=rows, row_sparse_out=keep),
        "scatter": lambda keep: scatter(
            rows[src], dst, n, reduce=reduce, row_sparse_out=keep),
        "spmm": lambda keep: spmm(adjacency, x, rows=rows,
                                  row_sparse_out=keep)}
    for name, call in calls.items():
        with record_launches() as dense_trace:
            dense = call(False)
        with record_launches() as kept_trace:
            kept = call(True)
        assert not sp.issparse(dense), name
        if graph.num_edges:
            assert sp.issparse(kept) and kept.dtype == np.float32, name
            kept = kept.toarray()
        assert np.array_equal(kept, dense), name
        assert [launch.fingerprint() for launch in kept_trace.launches] \
            == [launch.fingerprint() for launch in dense_trace.launches]


def test_an_spmm_epilogue_densifies_the_kept_product():
    graph = _cora()
    x, rows = graph.features, graph.feature_rows(graph.features)
    adjacency = graph.adjacency_csr()
    bias = np.ones(x.shape[1], dtype=np.float32)
    for kwargs in ({"bias": bias}, {"activation": "relu"}):
        kept = spmm(adjacency, x, rows=rows, row_sparse_out=True, **kwargs)
        assert not sp.issparse(kept)
        assert np.array_equal(kept, spmm(adjacency, x, **kwargs))

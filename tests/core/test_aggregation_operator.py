"""The sum / mean aggregation operator and the kernels that apply it.

``scatter`` and ``fused_gather_scatter`` take the CSR
:func:`~repro.core.kernels.aggregation_operator` as an argument (the
plan executor keeps it resident per graph) or build it for the call;
either way the result is the unfused reference's, bit for bit.  An
operator that cannot belong to the call is refused before any
arithmetic and records no launch.

Where the dense operand has a row-sparse form (``rows=``), a sum /
mean aggregation and ``spmm`` multiply it instead whenever
``takes_row_sparse`` says so — bit for bit the dense product,
``-0.0`` features included — and the rule sends the shapes on which
that route measured slower, and rows storing a NaN or an inf, to the
dense product.  The unfused pair is the same route split in two:
``index_select(..., rows=)`` gathers the stored entries and
``scatter`` reduces them, bit for bit the dense pair, with the dense
pair's launch records.

The CSR products never enter BLAS, so these pins hold at any BLAS
thread count (CI re-runs this file under ``OPENBLAS_NUM_THREADS=2``).
"""

import math
from importlib import import_module

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, given
from hypothesis import strategies as st

from repro.core.kernels import (
    aggregation_operator,
    fused_gather_scatter,
    index_select,
    record_launches,
    reduction_structure,
    scatter,
    spmm,
    takes_row_sparse,
)
from repro.errors import KernelError
from repro.graph.formats import COOMatrix
from repro.plan.executor import _scaled
from strategies import STANDARD_SETTINGS, feature_matrices, power_law_graphs

_SUM_MEAN = ("sum", "mean")


def _assert_operator_parity(source, src, dst, dim_size, reduce, scale):
    messages = index_select(source, src)
    if scale is not None:
        messages = messages * scale[:, None]
    reference = scatter(messages, dst, dim_size=dim_size, reduce=reduce)
    structure = reduction_structure(dst, dim_size)
    fused_op = aggregation_operator(structure, src, scale, source.shape[0])
    identity = aggregation_operator(structure, None, None, dst.shape[0])
    for name, result in (
        ("fused + operator",
         fused_gather_scatter(source, src, dst, dim_size, scale=scale,
                              reduce=reduce, structure=structure,
                              operator=fused_op)),
        ("fused + operator, no structure",
         fused_gather_scatter(source, src, dst, dim_size, scale=scale,
                              reduce=reduce, operator=fused_op)),
        ("fused, per call",
         fused_gather_scatter(source, src, dst, dim_size, scale=scale,
                              reduce=reduce)),
        ("scatter + operator",
         scatter(messages, dst, dim_size=dim_size, reduce=reduce,
                 structure=structure, operator=identity)),
    ):
        assert result.dtype == np.float32, name
        assert np.array_equal(result, reference), (name, reduce)


@STANDARD_SETTINGS
@given(graph=power_law_graphs(min_nodes=1, max_width=4),
       reduce=st.sampled_from(_SUM_MEAN), scaled=st.booleans(),
       seed=st.integers(0, 2**31 - 1))
def test_operator_matches_unfused_reference(graph, reduce, scaled, seed):
    """The drawn graphs carry zero-edge graphs, isolated nodes (mean's
    clamped count) and duplicate edges."""
    scale = np.random.default_rng(seed).standard_normal(
        graph.num_edges).astype(np.float32) if scaled else None
    _assert_operator_parity(graph.features, graph.src, graph.dst,
                            graph.num_nodes, reduce, scale)


_SOURCE = np.array([[1.5, -0.5], [-2.25, 4.0], [0.1, 0.3], [3.0, -7.5]],
                   dtype=np.float32)
_CORNERS = {
    "zero edges": ([], []),
    "isolated nodes": ([0, 3], [1, 1]),
    "duplicate edges": ([1, 1, 1, 0, 2], [2, 2, 2, 2, 0]),
}


@pytest.mark.parametrize("reduce", _SUM_MEAN)
@pytest.mark.parametrize("scaled", [False, True])
@pytest.mark.parametrize("corner", sorted(_CORNERS))
def test_corner_cases_match_reference(corner, scaled, reduce):
    src, dst = (np.array(a, dtype=np.int64) for a in _CORNERS[corner])
    scale = np.linspace(-1.5, 2.5, src.size).astype(np.float32) \
        if scaled else None
    _assert_operator_parity(_SOURCE, src, dst, 4, reduce, scale)


def test_operator_layout():
    dst = np.array([2, 0, 2, 1, 0, 2])
    src = np.array([5, 4, 3, 2, 1, 0])
    scale = np.arange(6, dtype=np.float32)
    structure = reduction_structure(dst, 4)
    fused = aggregation_operator(structure, src, scale, 6)
    assert fused.shape == (4, 6) and fused.nnz == 6
    assert fused.indptr.tolist() == [0, 2, 3, 6, 6]
    assert fused.indices.tolist() == [4, 1, 2, 5, 3, 0]   # src[perm]
    assert fused.data.tolist() == [1, 4, 3, 0, 2, 5]       # scale[perm]
    assert fused.dtype == np.float32
    identity = aggregation_operator(structure, None, None, 6)
    assert identity.indices.tolist() == structure.perm.tolist()
    assert identity.data.tolist() == [1.0] * 6


# -- refusing an operator that is not the call's ------------------------------

_X = np.arange(8, dtype=np.float32).reshape(4, 2)
_SRC = np.array([0, 1, 2, 3, 1])
_DST = np.array([1, 1, 0, 2, 3])
_MESSAGES = _X[_SRC]


def _fused(operator, reduce="sum", source=_X):
    return fused_gather_scatter(source, _SRC, _DST, 4, reduce=reduce,
                                operator=operator)


def _scatter(operator, reduce="sum"):
    return scatter(_MESSAGES, _DST, dim_size=4, reduce=reduce,
                   operator=operator)


@pytest.fixture
def no_arithmetic(monkeypatch):
    """Fail if a refused call reaches a reduction."""
    from importlib import import_module

    def refuse(*args, **kwargs):
        raise AssertionError("a refused operator reached the arithmetic")

    monkeypatch.setattr(import_module("repro.core.kernels.scatter"),
                        "_csr_reduce", refuse)


def _assert_refused(call):
    with record_launches() as recorder:
        with pytest.raises(KernelError):
            call()
    assert recorder.launches == []


@pytest.mark.parametrize("kernel", ["fused", "scatter"])
def test_operator_of_another_index_is_refused(kernel, no_arithmetic):
    # One edge short (wrong nnz), and one slot short (wrong shape).
    short = reduction_structure(_DST[:-1], 4)
    narrow = reduction_structure(np.array([1, 1, 0, 2, 2]), 3)
    if kernel == "fused":
        operators = [aggregation_operator(short, _SRC[:-1], None, 4),
                     aggregation_operator(narrow, _SRC, None, 4)]
        call = _fused
    else:
        operators = [aggregation_operator(short, None, None, 4),
                     aggregation_operator(narrow, None, None, 5)]
        call = _scatter
    for operator in operators:
        _assert_refused(lambda: call(operator))


@pytest.mark.parametrize("reduce", ["max", "min"])
@pytest.mark.parametrize("kernel", ["fused", "scatter"])
def test_operator_with_max_min_is_refused(kernel, reduce, no_arithmetic):
    """Both kernels reduce by sum and mean only: another ``reduce`` is
    refused before any arithmetic, with or without an operator."""
    structure = reduction_structure(_DST, 4)
    if kernel == "fused":
        call = _fused
        operator = aggregation_operator(structure, _SRC, None, 4)
    else:
        call = _scatter
        operator = aggregation_operator(structure, None, None, 5)
    for given in (operator, None):
        _assert_refused(lambda: call(given, reduce))


@pytest.mark.parametrize("kernel", ["fused", "scatter"])
def test_operator_for_other_source_rows_is_refused(kernel, no_arithmetic):
    structure = reduction_structure(_DST, 4)
    if kernel == "fused":
        operator = aggregation_operator(structure, _SRC, None, 4)
        wider = np.zeros((6, 2), dtype=np.float32)
        _assert_refused(lambda: _fused(operator, source=wider))
    else:
        operator = aggregation_operator(structure, None, None, 6)
        _assert_refused(lambda: _scatter(operator))


# -- the row-sparse route -----------------------------------------------------

def _bits(array):
    return np.ascontiguousarray(array, dtype=np.float32).view(np.uint32)


@STANDARD_SETTINGS
@given(data=st.data(), reduce=st.sampled_from(_SUM_MEAN),
       scaled=st.booleans(), specials=st.booleans(),
       seed=st.integers(0, 2**31 - 1))
def test_row_sparse_route_is_the_dense_product_bitwise(data, reduce, scaled,
                                                       specials, seed):
    """Forced onto the route whatever the ratio says (the rule has its
    own property below).  The drawn graphs carry zero-in-degree rows
    and duplicate edges; the drawn features ``-0.0`` at absent
    positions and, with ``specials``, NaN / +inf / -inf stored — which
    the rule keeps dense: SpGEMM and the dense product agree on where a
    NaN lands, not on its bits when two NaNs meet in one sum."""
    graph = data.draw(power_law_graphs(min_nodes=1, max_nodes=32))
    x, _ = data.draw(feature_matrices(rows=graph.num_nodes, max_width=24))
    rng = np.random.default_rng(seed)
    if specials:
        stored = rng.permutation(np.flatnonzero(x))[:3]
        x.flat[stored] = np.array([np.nan, np.inf, -np.inf],
                                  dtype=np.float32)[:stored.size]
    rows = sp.csr_matrix(x)
    assert rows.nnz == np.count_nonzero(x)
    scale = rng.standard_normal(graph.num_edges).astype(np.float32) \
        if scaled else None
    adjacency = COOMatrix(graph.dst, graph.src,
                          rng.standard_normal(graph.num_edges),
                          shape=(graph.num_nodes, graph.num_nodes)).to_csr()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(import_module("repro.core.kernels.scatter"),
                      "ROW_SPARSE_RATIO", 0)
        assert takes_row_sparse(adjacency, rows) \
            is bool(np.isfinite(x).all())
        pairs = [
            (fused_gather_scatter(x, graph.src, graph.dst, graph.num_nodes,
                                  scale=scale, reduce=reduce),
             fused_gather_scatter(x, graph.src, graph.dst, graph.num_nodes,
                                  scale=scale, reduce=reduce, rows=rows)),
            (spmm(adjacency, x), spmm(adjacency, x, rows=rows)),
        ]
    for dense, routed in pairs:
        assert routed.dtype == np.float32 and routed.shape == dense.shape
        assert np.array_equal(_bits(routed), _bits(dense))


#: Every stored value of the rows the rule property hands the kernels:
#: no drawn feature sum comes within 2**90 of it.
_MARKER = np.float32(2.0**100)

#: (width, density) of the route-rule sweep; the row-sparse route won
#: only on the datasets' own shapes, 1 % at 500 columns and wider.
_WINS = {(500, 0.01), (1433, 0.01), (3703, 0.01)}


@STANDARD_SETTINGS
@given(graph=power_law_graphs(min_nodes=1, max_nodes=24),
       width=st.sampled_from((16, 64, 500, 1433, 3703)),
       density=st.sampled_from((0.01, 0.0625)),
       seed=st.integers(0, 2**31 - 1))
def test_rule_routes_the_losing_shapes_dense(graph, width, density, seed):
    """Every row stores ``ceil(width * density)`` entries, so the rule's
    ratio is ``width / (1 + stored per row)`` on any graph.  The kernels
    are handed rows whose every value is a marker far beyond the
    features' (finite: non-finite rows never take the route): a marker-
    sized output is the proof they multiplied them, and a dense answer
    must equal the plain product."""
    assume(graph.num_edges > 0)
    rng = np.random.default_rng(seed)
    n, per_row = graph.num_nodes, math.ceil(width * density)
    columns = np.sort(rng.random((n, width)).argsort(axis=1)[:, :per_row],
                      axis=1)
    rows = sp.csr_matrix(
        (rng.standard_normal(n * per_row).astype(np.float32) + 4.0,
         columns.ravel(), np.arange(n + 1) * per_row), shape=(n, width))
    x = rows.toarray()
    poisoned = rows.copy()
    poisoned.data[:] = _MARKER
    taken = (width, density) in _WINS
    structure = reduction_structure(graph.dst, n)
    operator = aggregation_operator(structure, graph.src, None, n)
    adjacency = graph.adjacency_csr()
    assert takes_row_sparse(operator, rows) is taken
    assert takes_row_sparse(adjacency, rows) is taken
    for dense, routed in (
            (fused_gather_scatter(x, graph.src, graph.dst, n,
                                  reduce="mean"),
             fused_gather_scatter(x, graph.src, graph.dst, n, reduce="mean",
                                  structure=structure, operator=operator,
                                  rows=poisoned)),
            (spmm(adjacency, x), spmm(adjacency, x, rows=poisoned))):
        assert bool(np.abs(routed).max() >= _MARKER / 2**10) is taken
        if not taken:
            assert np.array_equal(routed, dense)


@pytest.mark.parametrize("kernel", ["fused", "spmm", "gather"])
def test_rows_of_another_shape_are_refused(kernel, no_arithmetic):
    rows = sp.csr_matrix(np.zeros((4, 3), dtype=np.float32))
    if kernel == "fused":
        _assert_refused(lambda: fused_gather_scatter(_X, _SRC, _DST, 4,
                                                     rows=rows))
    elif kernel == "spmm":
        adjacency = COOMatrix(_DST, _SRC, shape=(4, 4)).to_csr()
        _assert_refused(lambda: spmm(adjacency, _X, rows=rows))
    else:
        _assert_refused(lambda: index_select(_X, _SRC, rows=rows))
        # Rows are gathered, never columns.
        _assert_refused(lambda: index_select(_X, _SRC[:2], dim=1,
                                             rows=sp.csr_matrix(_X)))


# -- the unfused pair over row-sparse messages --------------------------------

@STANDARD_SETTINGS
@given(data=st.data(), reduce=st.sampled_from(_SUM_MEAN),
       scale_dtype=st.sampled_from((None, np.float32, np.float64)),
       specials=st.booleans(), duplicates=st.integers(0, 3),
       seed=st.integers(0, 2**31 - 1))
def test_row_sparse_messages_reduce_to_the_dense_pair_bitwise(
        data, reduce, scale_dtype, specials, duplicates, seed):
    """``scatter(index_select(x, src, rows=rows) * scale, dst)`` is the
    dense pair's output and launch records, bit for bit.  The kernels
    ask no rule here (the plan executor decides the route), so nothing
    needs forcing.  The drawn graphs carry zero-in-degree rows, the
    first ``duplicates`` edges are repeated, the features hold ``-0.0``
    at absent positions and, with ``specials``, NaN / ±inf stored; the
    scales are finite, of either sign, in either float width — a
    float64 scale promotes the messages before their one cast to
    float32, on both routes."""
    graph = data.draw(power_law_graphs(min_nodes=1, max_nodes=32))
    x, _ = data.draw(feature_matrices(rows=graph.num_nodes, max_width=24))
    rng = np.random.default_rng(seed)
    if specials:
        stored = rng.permutation(np.flatnonzero(x))[:3]
        x.flat[stored] = np.array([np.nan, np.inf, -np.inf],
                                  dtype=np.float32)[:stored.size]
    src = np.concatenate([graph.src, graph.src[:duplicates]])
    dst = np.concatenate([graph.dst, graph.dst[:duplicates]])
    scale = None if scale_dtype is None \
        else rng.standard_normal(src.size).astype(scale_dtype)
    rows = sp.csr_matrix(x)

    def pair(rows):
        messages = index_select(x, src, rows=rows)
        if scale is not None:
            messages = _scaled(messages, scale)
        return scatter(messages, dst, dim_size=graph.num_nodes,
                       reduce=reduce)

    with record_launches() as dense_launches:
        dense = pair(None)
    with record_launches() as routed_launches:
        routed = pair(rows)
    assert routed.dtype == np.float32 and routed.shape == dense.shape
    assert np.array_equal(_bits(routed), _bits(dense))
    assert [l.fingerprint() for l in routed_launches.launches] \
        == [l.fingerprint() for l in dense_launches.launches]
    assert [l.kernel for l in routed_launches.launches] \
        == ["indexSelect", "scatter"]


def test_gathered_rows_keep_only_stored_entries():
    x = np.zeros((4, 3), dtype=np.float32)
    x[1, 2], x[3, 0] = 2.5, -1.0
    messages = index_select(x, _SRC, rows=sp.csr_matrix(x))
    assert sp.issparse(messages) and messages.shape == (5, 3)
    assert messages.nnz == 3                     # rows 1, 3, 1
    assert np.array_equal(messages.toarray(), x[_SRC])


@pytest.mark.parametrize("reduce", ["max", "min"])
def test_row_sparse_messages_under_max_min_are_refused(reduce,
                                                       no_arithmetic):
    """Row-sparse messages are refused an unknown ``reduce`` as dense
    ones are."""
    messages = sp.csr_matrix(_MESSAGES)
    _assert_refused(lambda: scatter(messages, _DST, dim_size=4,
                                    reduce=reduce))

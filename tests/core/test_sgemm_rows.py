"""``sgemm``'s row-sparse left operand and the graph memo behind it.

``sgemm`` takes its left operand dense or row-sparse (a SciPy CSR).  A
first-layer ``sgemm`` whose left operand is the graph's own feature
matrix is handed ``Graph.feature_rows`` — a resident CSR of the matrix —
and multiplies over its stored entries instead of through BLAS, as does
one handed a kept sum / mean of it.  The two routes are the suite's one
by-design *numerical* contract (docs/architecture.md, "Row-sparse first
layer"): they agree to float32 reassociation, while everything that
takes the same route twice stays bitwise.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given
from hypothesis import strategies as st

from repro.core.kernels import record_launches, sgemm
from repro.errors import KernelError
from repro.graph import Graph
from repro.graph.graph import ROW_SPARSE_STRIDE
from strategies import STANDARD_SETTINGS, feature_matrices

#: Unit roundoff of float32.
_U = 2.0 ** -24


def _graph(x):
    return Graph(np.zeros((2, 0), dtype=np.int64), features=x,
                 num_nodes=x.shape[0])


def _rows(x):
    """The resident structure where the graph keeps one, else the
    vendor's own conversion — the same canonical CSR (pinned below)."""
    rows = _graph(x).feature_rows(x)
    return sp.csr_matrix(x) if rows is None else rows


def _operands(x, seed, m):
    rng = np.random.default_rng(seed)
    n, k = x.shape
    return (rng.standard_normal((k, m)).astype(np.float32),
            rng.standard_normal(m).astype(np.float32),
            rng.standard_normal((n, m)).astype(np.float32))


@STANDARD_SETTINGS
@given(drawn=feature_matrices())
def test_feature_rows_declines_exactly_above_the_boundary(drawn):
    x, nnz = drawn
    rows = _graph(x).feature_rows(x)
    assert (rows is None) == (ROW_SPARSE_STRIDE * nnz > x.size)
    if rows is not None:
        # Blocked mask scan == the vendor's dense -> CSR conversion:
        # same stored positions (-0.0 absent), column-ascending rows.
        reference = sp.csr_matrix(x)
        assert rows.shape == x.shape and rows.nnz == nnz
        assert np.array_equal(rows.indptr, reference.indptr)
        assert np.array_equal(rows.indices, reference.indices)
        assert np.array_equal(rows.data, reference.data)
        assert rows.data.dtype == np.float32
        assert rows.indices.dtype == rows.indptr.dtype == np.int32


def test_row_blocks_do_not_change_the_structure(monkeypatch):
    """A scan cut into many row blocks builds the one-block CSR."""
    from repro.graph import graph as graph_module
    rng = np.random.default_rng(0)
    x = np.where(rng.random((37, 40)) < 0.03,
                 rng.standard_normal((37, 40)), 0.0).astype(np.float32)
    whole = _graph(x).feature_rows(x)
    monkeypatch.setattr(graph_module, "_SCAN_BLOCK_BYTES", 3 * 40 * 4)
    blocked = _graph(x).feature_rows(x)
    assert np.array_equal(blocked.indptr, whole.indptr)
    assert np.array_equal(blocked.indices, whole.indices)
    assert np.array_equal(blocked.data, whole.data)
    dense = np.ones((37, 40), dtype=np.float32)   # declined mid-scan
    assert _graph(dense).feature_rows(dense) is None


@STANDARD_SETTINGS
@given(drawn=feature_matrices(), m=st.integers(1, 20),
       seed=st.integers(0, 2**31 - 1),
       alpha=st.sampled_from((1.0, -0.5, 3.0)),
       beta=st.sampled_from((0.0, 0.75)), biased=st.booleans(),
       activation=st.sampled_from((None, "relu")))
def test_routes_agree_within_the_documented_bound(drawn, m, seed, alpha,
                                                  beta, biased, activation):
    """``|rows route - dense route| <= 2 (k + 4) u (|alpha| |X||W| +
    |beta C| + |bias|)`` elementwise: the float32 dot-product bound,
    once per route, plus the shared epilogue's roundings.  ReLU is
    exact and 1-Lipschitz, so the bound survives it."""
    x, _ = drawn
    w, bias, c = _operands(x, seed, m)
    kwargs = dict(alpha=alpha, beta=beta, c=c if beta else None,
                  bias=bias if biased else None, activation=activation)
    dense = sgemm(x, w, **kwargs)
    sparse = sgemm(_rows(x), w, **kwargs)
    assert sparse.dtype == dense.dtype == np.float32
    assert sparse.shape == dense.shape == (x.shape[0], m)
    magnitude = abs(alpha) * (np.abs(x).astype(np.float64)
                              @ np.abs(w).astype(np.float64))
    if beta:
        magnitude += np.abs(beta * c.astype(np.float64))
    if biased:
        magnitude += np.abs(bias)
    bound = 2 * (x.shape[1] + 4) * _U * magnitude
    assert np.all(np.abs(sparse.astype(np.float64) - dense) <= bound)


@STANDARD_SETTINGS
@given(drawn=feature_matrices(), m=st.integers(1, 20),
       seed=st.integers(0, 2**31 - 1), cut=st.tuples(
           st.floats(0, 1), st.floats(0, 1)), biased=st.booleans())
def test_row_count_independence_is_bitwise(drawn, m, seed, cut, biased):
    """An output row is a function of its own input row: any row range
    multiplied alone equals the same rows of the whole launch, bit for
    bit — what a segment-local launch per batch member relies on, and
    what BLAS does not promise."""
    x, _ = drawn
    w, bias, _ = _operands(x, seed, m)
    bias = bias if biased else None
    rows = _rows(x)
    lo, hi = sorted(int(round(f * x.shape[0])) for f in cut)
    whole = sgemm(rows, w, bias=bias)
    part = sgemm(rows[lo:hi], w, bias=bias)
    assert np.array_equal(part, whole[lo:hi])


@STANDARD_SETTINGS
@given(drawn=feature_matrices(), m=st.integers(1, 20),
       seed=st.integers(0, 2**31 - 1),
       activation=st.sampled_from((None, "relu")))
def test_launch_record_ignores_the_route(drawn, m, seed, activation):
    """The record is the dense GEMM's, from shapes alone."""
    x, _ = drawn
    w, bias, _ = _operands(x, seed, m)
    with record_launches() as dense:
        sgemm(x, w, bias=bias, tag="l0", activation=activation)
    with record_launches() as sparse:
        sgemm(_rows(x), w, bias=bias, tag="l0", activation=activation)
    assert [launch.fingerprint() for launch in sparse.launches] \
        == [launch.fingerprint() for launch in dense.launches]
    assert len(sparse.launches) == 1


class TestEdgeGeometry:
    @pytest.mark.parametrize("n,k", [(0, 5), (1, 5), (3, 0), (0, 0)])
    def test_degenerate_shapes(self, n, k):
        x = np.ones((n, k), dtype=np.float32)
        if n:
            x[:, 1:] = 0.0                    # one entry per row at most
        w = np.full((k, 4), 2.0, dtype=np.float32)
        bias = np.arange(4, dtype=np.float32)
        out = sgemm(_rows(x), w, bias=bias)
        assert out.dtype == np.float32
        assert np.array_equal(out, sgemm(x, w, bias=bias))
        assert out.shape == (n, 4)

    def test_zero_width_features_are_kept_row_sparse(self):
        x = np.zeros((3, 0), dtype=np.float32)
        rows = _graph(x).feature_rows(x)
        assert rows is not None and rows.shape == (3, 0) and rows.nnz == 0

    def test_all_zero_matrix_gives_zeros_plus_bias(self):
        x = np.zeros((6, 9), dtype=np.float32)
        rows = _graph(x).feature_rows(x)
        assert rows.nnz == 0
        bias = np.array([1.0, -2.0], dtype=np.float32)
        out = sgemm(rows, np.ones((9, 2), dtype=np.float32), bias=bias)
        assert np.array_equal(out, np.tile(bias, (6, 1)))

    @pytest.mark.parametrize("shape", [(5, 8), (6, 10), (9, 6)])
    def test_rows_of_another_shape_refused(self, shape):
        """A row-sparse ``a`` meets the dense one's dimension check."""
        with pytest.raises(KernelError, match="dimension mismatch"):
            sgemm(sp.csr_matrix(shape, dtype=np.float32),
                  np.ones((9, 2), dtype=np.float32))

    def test_row_sparse_operand_is_read_in_float32(self):
        """A float64 CSR is cast as a dense float64 ``a`` is."""
        x = np.array([[0.0, 1.0 / 3.0], [2.0, 0.0]])
        w = np.array([[3.0], [1.0 / 7.0]], dtype=np.float32)
        assert np.array_equal(sgemm(sp.csr_matrix(x), w),
                              sgemm(sp.csr_matrix(x.astype(np.float32)), w))


def test_in_place_epilogue_keeps_the_out_of_place_roundings():
    """``alpha == 1`` skips the multiply and ``beta * c`` / ``bias``
    are added into the product's own array: bit for bit the expression
    the kernel used to allocate two more temporaries for."""
    rng = np.random.default_rng(3)
    a = rng.standard_normal((33, 17)).astype(np.float32)
    b = rng.standard_normal((17, 9)).astype(np.float32)
    c = rng.standard_normal((33, 9)).astype(np.float32)
    bias = rng.standard_normal(9).astype(np.float32)
    for alpha, beta in ((1.0, 0.0), (1.0, 0.5), (2.5, 0.0), (-0.3, 1.5)):
        old = alpha * (a @ b)
        if beta != 0.0:
            old = old + beta * c
        old = (old + bias).astype(np.float32, copy=False)
        assert np.array_equal(
            sgemm(a, b, bias=bias, alpha=alpha, beta=beta, c=c), old)
    assert not np.shares_memory(sgemm(a, b, beta=1.0, c=c), c)

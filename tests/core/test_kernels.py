"""Unit and property tests for the core kernels (Table II)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.kernels import (
    KERNELS,
    REDUCE_OPS,
    index_select,
    kernel_table,
    scatter,
    sgemm,
    spgemm,
    spmm,
)
from repro.errors import KernelError
from repro.graph.formats import COOMatrix


def random_csr(rng, n=12, nnz=40):
    return COOMatrix(
        rng.integers(0, n, nnz), rng.integers(0, n, nnz),
        rng.standard_normal(nnz).astype(np.float32), shape=(n, n),
    ).to_csr()


class TestIndexSelect:
    def test_row_gather(self):
        x = np.arange(12, dtype=np.float32).reshape(4, 3)
        out = index_select(x, np.array([2, 0, 2]))
        assert np.allclose(out, x[[2, 0, 2]])

    def test_column_gather(self):
        x = np.arange(12, dtype=np.float32).reshape(4, 3)
        out = index_select(x, np.array([1, 1]), dim=1)
        assert np.allclose(out, x[:, [1, 1]])

    def test_1d_input(self):
        x = np.array([5.0, 7.0, 9.0], dtype=np.float32)
        assert np.allclose(index_select(x, np.array([2, 1])), [9.0, 7.0])

    def test_empty_index(self):
        x = np.ones((3, 2), dtype=np.float32)
        out = index_select(x, np.array([], dtype=np.int64))
        assert out.shape == (0, 2)

    def test_out_of_range_rejected(self):
        x = np.ones((3, 2), dtype=np.float32)
        with pytest.raises(KernelError):
            index_select(x, np.array([3]))
        with pytest.raises(KernelError):
            index_select(x, np.array([-1]))

    def test_float_index_rejected(self):
        with pytest.raises(KernelError):
            index_select(np.ones((3, 2)), np.array([0.5]))

    def test_3d_input_rejected(self):
        with pytest.raises(KernelError):
            index_select(np.ones((2, 2, 2)), np.array([0]))

    def test_bad_dim_rejected(self):
        with pytest.raises(KernelError):
            index_select(np.ones(4), np.array([0]), dim=1)


class TestScatter:
    def test_sum(self):
        src = np.array([[1.0], [2.0], [3.0]], dtype=np.float32)
        out = scatter(src, np.array([0, 0, 2]), dim_size=3)
        assert np.allclose(out[:, 0], [3.0, 0.0, 3.0])

    def test_mean(self):
        src = np.array([[2.0], [4.0]], dtype=np.float32)
        out = scatter(src, np.array([1, 1]), dim_size=2, reduce="mean")
        assert out[1, 0] == pytest.approx(3.0)

    def test_max_and_min(self):
        """Refused: plans reduce by sum and mean only, and so does the
        kernel."""
        src = np.array([[1.0], [-5.0], [3.0]], dtype=np.float32)
        for reduce in ("max", "min"):
            with pytest.raises(KernelError, match="unknown reduce"):
                scatter(src, np.array([0, 0, 0]), 1, reduce=reduce)

    def test_1d_src(self):
        out = scatter(np.array([1.0, 2.0], dtype=np.float32),
                      np.array([1, 1]), dim_size=3)
        assert np.allclose(out, [0.0, 3.0, 0.0])

    def test_empty_slots_are_zero(self):
        out = scatter(np.ones((2, 2), dtype=np.float32), np.array([0, 0]), 4)
        assert np.all(out[1:] == 0)

    def test_dim_size_inferred(self):
        out = scatter(np.ones((2, 1), dtype=np.float32), np.array([0, 4]))
        assert out.shape == (5, 1)

    def test_too_small_dim_size_rejected(self):
        with pytest.raises(KernelError):
            scatter(np.ones((2, 1), dtype=np.float32), np.array([0, 4]), dim_size=3)

    def test_negative_index_rejected(self):
        with pytest.raises(KernelError):
            scatter(np.ones((1, 1), dtype=np.float32), np.array([-1]), 2)

    def test_unknown_reduce_rejected(self):
        with pytest.raises(KernelError):
            scatter(np.ones((1, 1), dtype=np.float32), np.array([0]), 1,
                    reduce="prod")

    def test_length_mismatch_rejected(self):
        with pytest.raises(KernelError):
            scatter(np.ones((3, 1), dtype=np.float32), np.array([0, 1]), 2)

    def test_empty_src(self):
        out = scatter(np.empty((0, 4), dtype=np.float32),
                      np.empty(0, dtype=np.int64), dim_size=3)
        assert out.shape == (3, 4)
        assert np.all(out == 0)

    def test_matches_dense_matmul(self):
        """scatter-sum of gathered rows == adjacency @ features."""
        rng = np.random.default_rng(0)
        n, e, f = 20, 80, 6
        src_ids = rng.integers(0, n, e)
        dst_ids = rng.integers(0, n, e)
        x = rng.standard_normal((n, f)).astype(np.float32)
        msgs = index_select(x, src_ids)
        agg = scatter(msgs, dst_ids, dim_size=n)
        dense = np.zeros((n, n), dtype=np.float32)
        np.add.at(dense, (dst_ids, src_ids), 1.0)
        assert np.allclose(agg, dense @ x, atol=1e-4)


class TestSgemm:
    def test_plain_product(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((5, 4)).astype(np.float32)
        b = rng.standard_normal((4, 3)).astype(np.float32)
        assert np.allclose(sgemm(a, b), a @ b, atol=1e-5)

    def test_alpha_beta_bias(self):
        a = np.eye(2, dtype=np.float32)
        b = np.ones((2, 2), dtype=np.float32)
        c = np.full((2, 2), 10.0, dtype=np.float32)
        bias = np.array([1.0, 2.0], dtype=np.float32)
        out = sgemm(a, b, bias=bias, alpha=2.0, beta=0.5, c=c)
        assert np.allclose(out, 2.0 * b + 5.0 + bias)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(KernelError):
            sgemm(np.ones((2, 3)), np.ones((2, 3)))

    def test_beta_requires_c(self):
        with pytest.raises(KernelError):
            sgemm(np.ones((2, 2)), np.ones((2, 2)), beta=1.0)

    def test_bad_bias_shape(self):
        with pytest.raises(KernelError):
            sgemm(np.ones((2, 2)), np.ones((2, 2)), bias=np.ones(3))

    def test_bad_c_shape(self):
        with pytest.raises(KernelError):
            sgemm(np.ones((2, 2)), np.ones((2, 2)), beta=1.0, c=np.ones((3, 3)))

    def test_1d_operand_rejected(self):
        with pytest.raises(KernelError):
            sgemm(np.ones(4), np.ones((4, 2)))

    def test_output_dtype_is_float32(self):
        out = sgemm(np.ones((2, 2), dtype=np.float64), np.ones((2, 2)))
        assert out.dtype == np.float32


class TestSparseKernels:
    def test_spmm_matches_dense(self):
        rng = np.random.default_rng(2)
        csr = random_csr(rng)
        x = rng.standard_normal((12, 5)).astype(np.float32)
        assert np.allclose(spmm(csr, x), csr.to_dense().array @ x, atol=1e-4)

    def test_spmm_requires_csr(self):
        with pytest.raises(KernelError):
            spmm(np.eye(3), np.ones((3, 2)))

    def test_spmm_dimension_mismatch(self):
        rng = np.random.default_rng(3)
        with pytest.raises(KernelError):
            spmm(random_csr(rng, n=4), np.ones((7, 2), dtype=np.float32))

    def test_spmm_rejects_1d(self):
        rng = np.random.default_rng(3)
        with pytest.raises(KernelError):
            spmm(random_csr(rng, n=4), np.ones(4, dtype=np.float32))

    def test_spgemm_matches_dense(self):
        rng = np.random.default_rng(4)
        a, b = random_csr(rng), random_csr(rng)
        out = spgemm(a, b)
        expected = a.to_dense().array @ b.to_dense().array
        assert np.allclose(out.to_dense().array, expected, atol=1e-3)

    def test_spgemm_requires_csr(self):
        rng = np.random.default_rng(5)
        with pytest.raises(KernelError):
            spgemm(random_csr(rng), np.eye(12))

    def test_spgemm_dimension_mismatch(self):
        rng = np.random.default_rng(6)
        with pytest.raises(KernelError):
            spgemm(random_csr(rng, n=3), random_csr(rng, n=5))


class TestEpilogueInPlace:
    """An ``sgemm`` / ``spmm`` epilogue activation writes into the
    launch's own product array: bit for bit the separate activation over
    the plain kernel's output, with no second ``[n, m]`` array."""

    @pytest.fixture
    def applied(self, monkeypatch):
        """``(input, out, result)`` of every activation call."""
        from repro.core.models import activations
        calls = []
        for name, fn in list(activations.ACTIVATIONS.items()):
            def spy(x, out=None, fn=fn):
                calls.append((x, out, fn(x, out=out)))
                return calls[-1][2]
            monkeypatch.setitem(activations.ACTIVATIONS, name, spy)
        return calls

    @staticmethod
    def _operands(rng):
        a = rng.standard_normal((9, 6)).astype(np.float32)
        a[0, 0], a[1, :] = np.nan, -0.0
        return a, rng.standard_normal((6, 4)).astype(np.float32), \
            rng.standard_normal(4).astype(np.float32)

    def _check(self, applied, launch, separate):
        fused = launch()
        (product, out, result), = applied
        assert out is product and result is product and fused is product
        assert fused.tobytes() == separate.tobytes()

    @pytest.mark.parametrize("sparse", [False, True])
    @pytest.mark.parametrize("activation", ["relu", "sigmoid"])
    def test_sgemm(self, applied, activation, sparse):
        import scipy.sparse as sp
        from repro.core.models.activations import get_activation
        a, b, bias = self._operands(np.random.default_rng(7))
        a = sp.csr_matrix(a) if sparse else a
        separate = get_activation(activation)(sgemm(a, b, bias=bias))
        del applied[:]
        self._check(applied, lambda: sgemm(a, b, bias=bias,
                                           activation=activation), separate)

    @pytest.mark.parametrize("activation", ["relu", "sigmoid"])
    def test_spmm(self, applied, activation):
        from repro.core.models.activations import get_activation
        rng = np.random.default_rng(8)
        x, _, _ = self._operands(rng)
        csr = random_csr(rng, n=9)
        bias = rng.standard_normal(6).astype(np.float32)
        separate = get_activation(activation)(spmm(csr, x, bias=bias))
        del applied[:]
        self._check(applied, lambda: spmm(csr, x, bias=bias,
                                          activation=activation), separate)


class TestRegistry:
    def test_table_ii_kernels_present(self):
        assert {"indexSelect", "scatter", "sgemm", "SpGEMM", "spmm"} == set(KERNELS)

    def test_short_forms(self):
        assert KERNELS["indexSelect"].short_form == "is"
        assert KERNELS["scatter"].short_form == "sc"
        assert KERNELS["sgemm"].short_form == "sg"
        assert KERNELS["SpGEMM"].short_form == "sp"

    def test_models(self):
        assert KERNELS["indexSelect"].model == "MP"
        assert KERNELS["scatter"].model == "MP"
        assert KERNELS["SpGEMM"].model == "SpMM"

    def test_kernel_table_rows(self):
        rows = kernel_table()
        assert len(rows) == len(KERNELS)
        assert all(len(row) == 4 for row in rows)

    def test_registry_functions_are_callable(self):
        x = np.ones((3, 2), dtype=np.float32)
        out = KERNELS["indexSelect"].fn(x, np.array([0, 2]))
        assert out.shape == (2, 2)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 30), st.integers(0, 100), st.integers(1, 6),
       st.sampled_from(REDUCE_OPS), st.integers(0, 2**31 - 1))
def test_scatter_matches_naive_loop(n, e, f, reduce, seed):
    """Property: vectorised scatter equals the obvious per-edge loop."""
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, n, e)
    src = rng.standard_normal((e, f)).astype(np.float32)
    out = scatter(src, idx, dim_size=n, reduce=reduce)

    expected = np.zeros((n, f), dtype=np.float64)
    counts = np.zeros(n, dtype=np.int64)
    for i in range(e):
        expected[idx[i]] += src[i]
        counts[idx[i]] += 1
    if reduce == "mean":
        nonzero = counts > 0
        expected[nonzero] /= counts[nonzero][:, None]
    assert np.allclose(out, expected, atol=1e-3)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 40), st.integers(1, 25), st.integers(0, 120),
       st.integers(0, 2**31 - 1))
def test_gather_scatter_roundtrip_equals_spmm(n, f, e, seed):
    """Property: the MP pair (indexSelect + scatter) equals the SpMM kernel
    on the same adjacency — the paper's two computational models agree."""
    rng = np.random.default_rng(seed)
    src_ids = rng.integers(0, n, e)
    dst_ids = rng.integers(0, n, e)
    x = rng.standard_normal((n, f)).astype(np.float32)
    mp = scatter(index_select(x, src_ids), dst_ids, dim_size=n)
    adj = COOMatrix(dst_ids, src_ids, shape=(n, n)).to_csr()
    assert np.allclose(mp, spmm(adj, x), atol=1e-3)

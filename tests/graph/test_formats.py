"""Unit tests for the sparse/dense matrix containers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphFormatError
from repro.graph.formats import (
    COOMatrix,
    CSRMatrix,
    DenseMatrix,
)


def random_coo(rng, rows=12, cols=9, nnz=40):
    return COOMatrix(
        rng.integers(0, rows, nnz),
        rng.integers(0, cols, nnz),
        rng.standard_normal(nnz).astype(np.float32),
        shape=(rows, cols),
    )


class TestCOOMatrix:
    def test_basic_construction(self):
        coo = COOMatrix([0, 1, 2], [1, 2, 0], shape=(3, 3))
        assert coo.shape == (3, 3)
        assert coo.nnz == 3
        assert coo.val.dtype == np.float32
        assert np.all(coo.val == 1.0)

    def test_shape_inference(self):
        coo = COOMatrix([0, 4], [1, 2])
        assert coo.shape == (5, 3)

    def test_empty_matrix(self):
        coo = COOMatrix([], [], shape=(4, 4))
        assert coo.nnz == 0
        assert coo.to_dense().array.sum() == 0

    def test_length_mismatch_rejected(self):
        with pytest.raises(GraphFormatError):
            COOMatrix([0, 1], [0])

    def test_out_of_bounds_rejected(self):
        with pytest.raises(GraphFormatError):
            COOMatrix([0, 5], [0, 0], shape=(3, 3))
        with pytest.raises(GraphFormatError):
            COOMatrix([0, 1], [0, 7], shape=(3, 3))

    def test_non_integer_indices_rejected(self):
        with pytest.raises(GraphFormatError):
            COOMatrix([0.5, 1.0], [0, 1])

    def test_two_dimensional_indices_rejected(self):
        with pytest.raises(GraphFormatError):
            COOMatrix([[0], [1]], [0, 1])

    def test_bad_values_length_rejected(self):
        with pytest.raises(GraphFormatError):
            COOMatrix([0, 1], [0, 1], val=[1.0])

    def test_to_dense_sums_duplicates(self):
        coo = COOMatrix([0, 0], [1, 1], [2.0, 3.0], shape=(2, 2))
        dense = coo.to_dense().array
        assert dense[0, 1] == pytest.approx(5.0)

    def test_transpose(self):
        coo = COOMatrix([0, 1], [2, 0], [1.0, 2.0], shape=(2, 3))
        t = coo.transpose()
        assert t.shape == (3, 2)
        assert np.allclose(t.to_dense().array, coo.to_dense().array.T)

    def test_coalesce_merges_and_sorts(self):
        coo = COOMatrix([1, 0, 1], [0, 0, 0], [1.0, 1.0, 4.0], shape=(2, 2))
        merged = coo.coalesce()
        assert merged.nnz == 2
        assert np.allclose(merged.to_dense().array, coo.to_dense().array)
        keys = merged.row * 2 + merged.col
        assert np.all(np.diff(keys) > 0)

    def test_coalesce_empty(self):
        coo = COOMatrix([], [], shape=(3, 3))
        assert coo.coalesce().nnz == 0


class TestCSRMatrix:
    def test_roundtrip_through_coo(self):
        rng = np.random.default_rng(1)
        coo = random_coo(rng)
        csr = coo.to_csr()
        assert csr.nnz == coo.nnz
        assert np.allclose(csr.to_dense().array, coo.to_dense().array, atol=1e-6)

    def test_row_lengths_match_degrees(self):
        coo = COOMatrix([0, 0, 2], [0, 1, 2], shape=(3, 3))
        csr = coo.to_csr()
        assert list(csr.row_lengths()) == [2, 0, 1]

    def test_to_csr_indptr_equals_the_add_at_reference(self):
        """The bincount row histogram is the scatter-add loop's, exactly
        (empty rows, duplicates and an empty matrix included)."""
        rng = np.random.default_rng(2)
        for rows, nnz in ((1, 0), (4, 0), (6, 40), (30, 12)):
            coo = COOMatrix(rng.integers(0, rows, nnz),
                            rng.integers(0, 5, nnz), shape=(rows, 5))
            reference = np.zeros(rows + 1, dtype=np.int64)
            np.add.at(reference, coo.row + 1, 1)
            np.cumsum(reference, out=reference)
            csr = coo.to_csr()
            assert csr.indptr.dtype == np.int64
            assert np.array_equal(csr.indptr, reference)

    def test_indptr_must_start_at_zero(self):
        with pytest.raises(GraphFormatError):
            CSRMatrix([1, 2], [0], shape=(1, 1))

    def test_indptr_must_be_monotone(self):
        with pytest.raises(GraphFormatError):
            CSRMatrix([0, 2, 1], [0, 0], shape=(2, 1))

    def test_indptr_terminal_must_match_indices(self):
        with pytest.raises(GraphFormatError):
            CSRMatrix([0, 3], [0, 1], shape=(1, 2))

    def test_indptr_length_must_match_rows(self):
        with pytest.raises(GraphFormatError):
            CSRMatrix([0, 1], [0], shape=(2, 1))

    def test_column_bounds_checked(self):
        with pytest.raises(GraphFormatError):
            CSRMatrix([0, 1], [5], shape=(1, 3))

    def test_matvec_matches_dense(self):
        rng = np.random.default_rng(2)
        csr = random_coo(rng).to_csr()
        x = rng.standard_normal(csr.shape[1]).astype(np.float32)
        assert np.allclose(csr.matvec(x), csr.to_dense().array @ x, atol=1e-4)

    def test_matvec_dimension_mismatch(self):
        csr = COOMatrix([0], [0], shape=(2, 2)).to_csr()
        with pytest.raises(GraphFormatError):
            csr.matvec(np.ones(5, dtype=np.float32))

    def test_matmul_matches_dense(self):
        rng = np.random.default_rng(3)
        csr = random_coo(rng).to_csr()
        x = rng.standard_normal((csr.shape[1], 7)).astype(np.float32)
        assert np.allclose(csr.matmul(x), csr.to_dense().array @ x, atol=1e-4)

    def test_matmul_rejects_vector(self):
        csr = COOMatrix([0], [0], shape=(2, 2)).to_csr()
        with pytest.raises(GraphFormatError):
            csr.matmul(np.ones(2, dtype=np.float32))

    def test_matmul_handles_empty_rows(self):
        csr = COOMatrix([2], [0], shape=(4, 2)).to_csr()
        x = np.ones((2, 3), dtype=np.float32)
        out = csr.matmul(x)
        assert np.allclose(out[0], 0)
        assert np.allclose(out[2], 1)

    def test_spgemm_matches_dense(self):
        rng = np.random.default_rng(4)
        a = random_coo(rng, rows=10, cols=8, nnz=30).to_csr()
        b = random_coo(rng, rows=8, cols=6, nnz=25).to_csr()
        product = a.spgemm(b)
        expected = a.to_dense().array @ b.to_dense().array
        assert np.allclose(product.to_dense().array, expected, atol=1e-4)

    def test_spgemm_dimension_mismatch(self):
        a = COOMatrix([0], [0], shape=(2, 3)).to_csr()
        b = COOMatrix([0], [0], shape=(2, 2)).to_csr()
        with pytest.raises(GraphFormatError):
            a.spgemm(b)

    def test_spgemm_with_empty_operand(self):
        a = COOMatrix([], [], shape=(3, 3)).to_csr()
        b = COOMatrix([0], [0], shape=(3, 3)).to_csr()
        out = a.spgemm(b)
        assert out.nnz == 0
        assert out.shape == (3, 3)


class TestCSCMatrix:
    def test_roundtrip(self):
        rng = np.random.default_rng(5)
        coo = random_coo(rng)
        csc = coo.to_csc()
        assert csc.shape == coo.shape
        assert np.allclose(csc.to_dense().array, coo.to_dense().array, atol=1e-6)

    def test_col_lengths(self):
        coo = COOMatrix([0, 1, 2], [1, 1, 0], shape=(3, 2))
        csc = coo.to_csc()
        assert list(csc.col_lengths()) == [1, 2]

    def test_csc_to_csr_roundtrip(self):
        rng = np.random.default_rng(6)
        coo = random_coo(rng)
        back = coo.to_csc().to_csr()
        assert np.allclose(back.to_dense().array, coo.to_dense().array, atol=1e-6)

    def test_matmul_via_interface(self):
        rng = np.random.default_rng(7)
        coo = random_coo(rng)
        x = rng.standard_normal((coo.shape[1], 4)).astype(np.float32)
        assert np.allclose(coo.to_csc().matmul(x), coo.to_dense().array @ x, atol=1e-4)


class TestDenseMatrix:
    def test_requires_2d(self):
        with pytest.raises(GraphFormatError):
            DenseMatrix(np.zeros(3))

    def test_nnz(self):
        dense = DenseMatrix([[0.0, 1.0], [2.0, 0.0]])
        assert dense.nnz == 2

    def test_to_coo_roundtrip(self):
        dense = DenseMatrix([[0.0, 1.5], [2.0, 0.0]])
        assert np.allclose(dense.to_coo().to_dense().array, dense.array)

    def test_matmul(self):
        dense = DenseMatrix([[1.0, 0.0], [0.0, 2.0]])
        x = np.array([[1.0], [3.0]], dtype=np.float32)
        assert np.allclose(dense @ x, [[1.0], [6.0]])

    def test_density_property(self):
        coo = COOMatrix([0], [0], shape=(2, 2))
        assert coo.density == pytest.approx(0.25)

    def test_density_of_empty_shape(self):
        coo = COOMatrix([], [], shape=(0, 0))
        assert coo.density == 0.0


@settings(max_examples=50, deadline=None)
@given(
    st.integers(1, 20),
    st.integers(1, 20),
    st.integers(0, 60),
    st.integers(0, 2**31 - 1),
)
def test_format_conversion_cycle_preserves_matrix(rows, cols, nnz, seed):
    """Property: COO -> CSR -> CSC -> COO preserves the dense matrix."""
    rng = np.random.default_rng(seed)
    coo = COOMatrix(
        rng.integers(0, rows, nnz),
        rng.integers(0, cols, nnz),
        rng.standard_normal(nnz).astype(np.float32),
        shape=(rows, cols),
    )
    cycled = coo.to_csr().to_csc().to_coo()
    assert cycled.shape == coo.shape
    assert np.allclose(cycled.to_dense().array, coo.to_dense().array, atol=1e-4)


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 12), st.integers(0, 40), st.integers(0, 2**31 - 1))
def test_spgemm_equals_dense_product(n, nnz, seed):
    """Property: SpGEMM agrees with the dense matrix product."""
    rng = np.random.default_rng(seed)
    a = COOMatrix(
        rng.integers(0, n, nnz), rng.integers(0, n, nnz),
        rng.standard_normal(nnz).astype(np.float32), shape=(n, n),
    ).to_csr()
    product = a.spgemm(a)
    dense = a.to_dense().array
    assert np.allclose(product.to_dense().array, dense @ dense, atol=1e-3)


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 15), st.integers(0, 50), st.integers(1, 8),
       st.integers(0, 2**31 - 1))
def test_matmul_matches_dense_product(n, nnz, feats, seed):
    """Property: CSR @ X equals the dense product for random operands."""
    rng = np.random.default_rng(seed)
    csr = COOMatrix(
        rng.integers(0, n, nnz), rng.integers(0, n, nnz), shape=(n, n)
    ).to_csr()
    x = rng.standard_normal((n, feats)).astype(np.float32)
    assert np.allclose(csr.matmul(x), csr.to_dense().array @ x, atol=1e-3)

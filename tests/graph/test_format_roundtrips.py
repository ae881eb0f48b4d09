"""Format round-trip coverage: COO <-> CSR <-> CSC <-> dense.

Pins the direct (COO-free) CSR<->CSC transpose against the assembled
dense form for the awkward inputs: duplicate coordinates, empty rows
and columns, zero-sized shapes, and non-square matrices.
"""

import numpy as np
import pytest

from repro.graph.formats import COOMatrix, CSCMatrix, CSRMatrix


def _dense_of(matrix) -> np.ndarray:
    return matrix.to_dense().array


CASES = {
    "plain": dict(row=[0, 1, 2], col=[1, 2, 0], val=[1.0, 2.0, 3.0],
                  shape=(3, 3)),
    "duplicates": dict(row=[0, 0, 1, 0], col=[1, 1, 2, 1],
                       val=[1.0, 2.0, 3.0, 4.0], shape=(2, 3)),
    "empty_rows": dict(row=[3], col=[0], val=[5.0], shape=(5, 2)),
    "empty_cols": dict(row=[0, 1], col=[3, 3], val=[1.0, 1.0], shape=(2, 5)),
    "no_entries": dict(row=[], col=[], val=[], shape=(4, 3)),
    "zero_shape": dict(row=[], col=[], val=[], shape=(0, 0)),
    "zero_cols": dict(row=[], col=[], val=[], shape=(3, 0)),
    "rectangular": dict(row=[0, 2, 2], col=[4, 0, 4], val=[1.0, 2.0, 3.0],
                        shape=(3, 5)),
}


@pytest.fixture(params=sorted(CASES))
def coo(request):
    case = CASES[request.param]
    return COOMatrix(np.asarray(case["row"], dtype=np.int64),
                     np.asarray(case["col"], dtype=np.int64),
                     np.asarray(case["val"], dtype=np.float32),
                     shape=case["shape"])


class TestRoundTrips:
    def test_coo_csr_coo(self, coo):
        back = coo.to_csr().to_coo()
        assert back.shape == coo.shape
        assert np.array_equal(_dense_of(back), _dense_of(coo))

    def test_coo_csc_coo(self, coo):
        back = coo.to_csc().to_coo()
        assert back.shape == coo.shape
        assert np.array_equal(_dense_of(back), _dense_of(coo))

    def test_csr_csc_csr(self, coo):
        csr = coo.to_csr()
        back = csr.to_csc().to_csr()
        assert back.shape == csr.shape
        assert np.array_equal(back.indptr, csr.indptr)
        assert np.array_equal(_dense_of(back), _dense_of(csr))

    def test_csc_csr_csc(self, coo):
        csc = coo.to_csc()
        back = csc.to_csr().to_csc()
        assert back.shape == csc.shape
        assert np.array_equal(back.indptr, csc.indptr)
        assert np.array_equal(_dense_of(back), _dense_of(csc))

    def test_dense_round_trip_sums_duplicates(self, coo):
        dense = coo.to_dense()
        assert np.array_equal(_dense_of(dense.to_csr()), dense.array)
        assert np.array_equal(_dense_of(dense.to_csc()), dense.array)


class TestDirectTranspose:
    """The COO-free CSR<->CSC paths match the COO-based reference."""

    def test_csr_to_csc_matches_coo_path(self, coo):
        csr = coo.to_csr()
        direct = csr.to_csc()
        reference = csr.to_coo().transpose().to_csr().transpose_view()
        assert direct.shape == reference.shape
        assert np.array_equal(direct.indptr, reference.indptr)
        assert np.array_equal(direct.indices, reference.indices)
        assert np.array_equal(direct.data, reference.data)

    def test_csc_to_csr_matches_coo_path(self, coo):
        csc = coo.to_csc()
        direct = csc.to_csr()
        reference = csc.to_coo().to_csr()
        assert direct.shape == reference.shape
        assert np.array_equal(direct.indptr, reference.indptr)
        assert np.array_equal(direct.indices, reference.indices)
        assert np.array_equal(direct.data, reference.data)

    def test_duplicates_preserved_not_merged(self):
        case = CASES["duplicates"]
        csr = COOMatrix(case["row"], case["col"], case["val"],
                        shape=case["shape"]).to_csr()
        csc = csr.to_csc()
        assert csc.nnz == csr.nnz == 4      # structural duplicates survive
        assert csc.to_csr().nnz == csr.nnz

    def test_random_matrices_agree_with_scipy_semantics(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            rows = int(rng.integers(1, 12))
            cols = int(rng.integers(1, 12))
            nnz = int(rng.integers(0, 40))
            coo = COOMatrix(rng.integers(0, rows, nnz),
                            rng.integers(0, cols, nnz),
                            rng.standard_normal(nnz).astype(np.float32),
                            shape=(rows, cols))
            dense = _dense_of(coo)
            assert np.allclose(_dense_of(coo.to_csr().to_csc()), dense,
                               atol=1e-5)
            assert np.allclose(_dense_of(coo.to_csc().to_csr()), dense,
                               atol=1e-5)


class TestCSCConstruction:
    def test_csc_matvec_through_csr(self):
        coo = COOMatrix([0, 1], [1, 0], [2.0, 3.0], shape=(2, 2))
        csc = coo.to_csc()
        assert isinstance(csc, CSCMatrix)
        x = np.array([1.0, 1.0], dtype=np.float32)
        assert np.allclose(csc.matvec(x), coo.to_csr().matvec(x))

    def test_transpose_view_round_trip(self):
        coo = COOMatrix([0, 2], [1, 0], [1.0, 4.0], shape=(3, 2))
        csr = coo.to_csr()
        view = csr.transpose_view()
        assert view.shape == (2, 3)
        assert isinstance(view.to_csr(), CSRMatrix)
        assert np.array_equal(_dense_of(view), _dense_of(coo).T)

"""Bag-of-words features are born row-sparse, and the graph keeps them so.

The generator builds the CSR straight from its word draws; the dense
generator it replaced is kept here as the oracle.  For every
bag-of-words dataset, at full scale and at the ``ci`` profile's scale,
the generated CSR is the one :func:`repro.graph.graph._row_sparse`
scans out of the oracle's matrix (same data, indices, indptr and
dtypes), and the graph's dense view is that matrix byte for byte.
"""

import zlib

import numpy as np
import pytest
import scipy.sparse as sp

from repro.bench import PROFILES
from repro.datasets import get_spec, scaled_spec
from repro.datasets.specs import DATASETS
from repro.datasets.synthetic import generate_graph, sample_edges
from repro.errors import GraphFormatError
from repro.graph import Graph, add_self_loops
from repro.graph.graph import _row_sparse
from repro.graph.validate import validate_graph

BAG_OF_WORDS = tuple(name for name, spec in DATASETS.items()
                     if spec.feature_style == "bag_of_words")
CASES = sorted({(name, scale) for name in BAG_OF_WORDS
                for scale in (1.0, PROFILES["ci"].scale_of(name))})


def _dense_bag_of_words(spec, rng):
    """The generator's former dense body: an ``[n, f]`` float32 matrix
    of ones at each row's drawn word ids."""
    n, f = spec.num_nodes, spec.feature_length
    active_per_row = max(1, int(f * 0.01))
    out = np.zeros((n, f), dtype=np.float32)
    cols = rng.integers(0, f, size=(n, active_per_row))
    rows = np.repeat(np.arange(n), active_per_row)
    out[rows, cols.ravel()] = 1.0
    return out


def _oracle(spec, seed=0):
    """The dense features :func:`generate_graph` used to draw: the same
    seed sequence, the edges drawn first."""
    name_key = zlib.crc32(spec.name.encode("utf-8"))
    rng = np.random.default_rng(np.random.SeedSequence([name_key, seed]))
    sample_edges(spec, rng)
    return _dense_bag_of_words(spec, rng)


def test_every_bag_of_words_dataset_is_covered():
    assert set(BAG_OF_WORDS) == {"cora", "citeseer", "pubmed"}
    assert ("pubmed", 0.5) in CASES and ("cora", 1.0) in CASES


@pytest.mark.parametrize("name, scale", CASES)
def test_generated_rows_are_the_scan_of_the_dense_oracle(name, scale):
    spec = scaled_spec(get_spec(name), scale)
    dense = _oracle(spec)
    graph = generate_graph(spec)
    stored = graph.stored_features
    scanned = _row_sparse(dense)
    assert sp.isspmatrix_csr(stored)
    for field in ("data", "indices", "indptr"):
        ours, theirs = getattr(stored, field), getattr(scanned, field)
        assert ours.dtype == theirs.dtype, field
        assert np.array_equal(ours, theirs), field
    assert not graph.dense_view_built
    assert graph.features.dtype == np.float32
    assert graph.features.tobytes() == dense.tobytes()


class TestStorage:
    """Which form a graph keeps, and the dense view beside it."""

    def _born(self):
        return generate_graph(scaled_spec(get_spec("cora"), 0.05))

    def test_row_sparse_x_is_its_own_resident_form(self):
        graph = self._born()
        stored = graph.stored_features
        assert graph.feature_rows(stored) is stored
        assert not graph.dense_view_built
        view = graph.features
        assert graph.dense_view_built and graph.features is view
        assert graph.feature_rows(view) is stored
        assert graph.feature_rows(view.copy()) is None
        with pytest.raises(ValueError):
            view[0, 0] = 2.0                      # read-only

    def test_assignment_rebinds_x_and_drops_the_csr(self):
        graph = self._born()
        replacement = graph.features.copy()
        graph.features = replacement
        assert graph.stored_features is replacement
        assert graph.features is replacement and not graph.dense_view_built
        assert graph.feature_rows(replacement).nnz \
            == np.count_nonzero(replacement)
        graph.features = None
        assert graph.num_features == 0 and graph.stored_features is None

    def test_dense_arrays_stay_dense_backed(self):
        dense = _dense_bag_of_words(scaled_spec(get_spec("cora"), 0.05),
                                    np.random.default_rng(3))
        graph = Graph(np.zeros((2, 0), dtype=np.int64), features=dense)
        assert graph.stored_features is dense and graph.features is dense

    def test_a_sparse_matrix_too_dense_for_the_rule_is_densified(self):
        full = sp.csr_matrix(np.ones((4, 8), dtype=np.float32))
        graph = Graph(np.zeros((2, 0), dtype=np.int64), features=full)
        assert isinstance(graph.stored_features, np.ndarray)
        assert np.array_equal(graph.features, full.toarray())

    def test_a_sparse_matrix_is_stored_canonical(self):
        """Duplicates summed, explicit zeros dropped, columns ascending:
        the entries ``_row_sparse`` would store for the same matrix."""
        n, f = 40, 64
        matrix = sp.csr_matrix(
            (np.array([1.0, 2.0, 0.0, 3.0], dtype=np.float32),
             np.array([5, 5, 7, 1]), np.array([0, 3, 4] + [4] * (n - 2))),
            shape=(n, f))
        graph = Graph(np.zeros((2, 0), dtype=np.int64), features=matrix)
        scanned = _row_sparse(matrix.toarray())
        for field in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(graph.stored_features, field),
                                  getattr(scanned, field)), field
        assert matrix.nnz == 4                  # the caller's is untouched

    def test_transforms_keep_the_stored_form(self):
        graph = self._born()
        looped = add_self_loops(graph)
        assert looped.stored_features is graph.stored_features
        part = Graph(np.zeros((2, 0), dtype=np.int64),
                     features=graph.stored_features[:10])
        assert sp.issparse(part.stored_features)
        assert not graph.dense_view_built
        assert np.array_equal(part.features, graph.features[:10])

    def test_validation_reads_the_stored_values(self):
        graph = self._born()
        validate_graph(graph)
        assert not graph.dense_view_built
        bad = graph.stored_features.copy()
        bad.data[0] = np.nan
        with pytest.raises(GraphFormatError, match="NaN"):
            validate_graph(Graph(graph.edge_index, features=bad))

"""Unit and property tests for structural graph transforms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphFormatError
from repro.graph import (
    Graph,
    add_self_loops,
    gcn_edge_weights,
    normalized_adjacency,
    symmetric_normalization,
    validate_graph,
)
from repro.graph.formats import COOMatrix


def random_graph(seed, nodes=20, edges=60, feats=4):
    rng = np.random.default_rng(seed)
    edge_index = rng.integers(0, nodes, size=(2, edges))
    features = rng.standard_normal((nodes, feats)).astype(np.float32)
    return Graph(edge_index, features=features, name=f"rand{seed}")


def dense_adjacency(graph):
    """``A[dst, src]`` as a dense array, parallel edges summed."""
    return graph.adjacency_coo().to_dense().array


class TestSelfLoops:
    def test_adds_loop_for_every_node(self):
        g = Graph(np.array([[0], [1]]), num_nodes=3)
        looped = add_self_loops(g)
        assert looped.num_edges == 4
        dense = dense_adjacency(looped)
        assert np.all(np.diag(dense) == 1.0)

    def test_keeps_existing_loops(self):
        g = Graph(np.array([[0, 1], [0, 2]]), num_nodes=3)
        looped = add_self_loops(g)
        # node 0 already had a loop; only nodes 1 and 2 gain one.
        assert looped.num_edges == 4

    def test_preserves_weights(self):
        g = Graph(np.array([[0], [1]]), edge_weight=np.array([3.0]), num_nodes=2)
        looped = add_self_loops(g)
        assert looped.edge_weight is not None
        assert looped.edge_weight[0] == pytest.approx(3.0)
        assert np.all(looped.edge_weight[1:] == 1.0)


class TestNormalization:
    def test_requires_square(self):
        rect = COOMatrix([0], [1], shape=(2, 3)).to_csr()
        with pytest.raises(GraphFormatError):
            symmetric_normalization(rect)

    def test_matches_dense_formula(self):
        g = random_graph(1)
        norm = normalized_adjacency(g)
        dense_a = dense_adjacency(add_self_loops(g))
        deg = dense_a.sum(axis=1)
        inv = np.where(deg > 0, deg ** -0.5, 0.0)
        expected = inv[:, None] * dense_a * inv[None, :]
        assert np.allclose(norm.to_dense().array, expected, atol=1e-5)

    def test_spectral_radius_bounded_for_undirected(self):
        # For an undirected graph, eigenvalues of D^-1/2 (A+I) D^-1/2 lie
        # in [-1, 1]; this is the stability property GCN relies on.
        directed = random_graph(2).edge_index
        g = Graph(np.unique(np.hstack([directed, directed[::-1]]), axis=1),
                  num_nodes=20)
        norm = normalized_adjacency(g)
        eigvals = np.linalg.eigvalsh(norm.to_dense().array.astype(np.float64))
        assert eigvals.max() <= 1.0 + 1e-5
        assert eigvals.min() >= -1.0 - 1e-5

    def test_zero_degree_rows_stay_zero(self):
        g = Graph(np.array([[0], [1]]), num_nodes=5)
        norm = symmetric_normalization(g.adjacency_csr())
        dense = norm.to_dense().array
        assert np.all(dense[3] == 0)
        assert np.all(dense[:, 3] == 0)


class TestGCNEdgeWeights:
    def test_matches_spmm_normalisation(self):
        """Per-edge 1/sqrt(du dv) weights assemble the same matrix as
        D^-1/2 (A+I) D^-1/2 — the MP/SpMM equivalence at the heart of
        the paper's two computational models (Eq. 1 vs Eq. 2)."""
        g = random_graph(3)
        g = Graph(np.unique(g.edge_index, axis=1), num_nodes=g.num_nodes)
        edge_index, weights = gcn_edge_weights(g)
        assembled = COOMatrix(edge_index[1], edge_index[0], weights,
                              shape=(g.num_nodes, g.num_nodes)).to_dense().array
        expected = normalized_adjacency(g).to_dense().array
        assert np.allclose(assembled, expected, atol=1e-5)

    def test_weight_count_matches_looped_edges(self):
        g = Graph(np.array([[0], [1]]), num_nodes=3)
        edge_index, weights = gcn_edge_weights(g)
        assert edge_index.shape[1] == weights.shape[0] == 4


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 25), st.integers(0, 80), st.integers(0, 2**31 - 1))
def test_self_loops_then_validate(nodes, edges, seed):
    """Property: self-loop insertion always yields a valid graph whose
    diagonal is fully populated."""
    rng = np.random.default_rng(seed)
    g = Graph(rng.integers(0, nodes, size=(2, edges)), num_nodes=nodes)
    looped = validate_graph(add_self_loops(g))
    dense = dense_adjacency(looped)
    assert np.all(np.diag(dense) >= 1.0)


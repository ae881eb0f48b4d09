"""Unit tests for the Graph value object."""

import numpy as np
import pytest

from repro.errors import GraphFormatError
from repro.graph import Graph


@pytest.fixture
def triangle():
    """Directed triangle 0->1->2->0 with 2-dim features."""
    edge_index = np.array([[0, 1, 2], [1, 2, 0]])
    features = np.arange(6, dtype=np.float32).reshape(3, 2)
    return Graph(edge_index, features=features, name="triangle")


class TestConstruction:
    def test_basic_properties(self, triangle):
        assert triangle.num_nodes == 3
        assert triangle.num_edges == 3
        assert triangle.num_features == 2
        assert triangle.name == "triangle"

    def test_rejects_bad_edge_index_shape(self):
        with pytest.raises(GraphFormatError):
            Graph(np.zeros((3, 4), dtype=np.int64))

    def test_rejects_float_edge_index(self):
        with pytest.raises(GraphFormatError):
            Graph(np.zeros((2, 3)))

    def test_rejects_negative_node_ids(self):
        with pytest.raises(GraphFormatError):
            Graph(np.array([[0, -1], [1, 0]]))

    def test_rejects_num_nodes_smaller_than_ids(self):
        with pytest.raises(GraphFormatError):
            Graph(np.array([[0, 5], [1, 0]]), num_nodes=3)

    def test_rejects_feature_row_mismatch(self):
        with pytest.raises(GraphFormatError):
            Graph(np.array([[0], [1]]), features=np.zeros((5, 2)), num_nodes=2)

    def test_rejects_1d_features(self):
        with pytest.raises(GraphFormatError):
            Graph(np.array([[0], [1]]), features=np.zeros(2))

    def test_rejects_bad_edge_weight(self):
        with pytest.raises(GraphFormatError):
            Graph(np.array([[0], [1]]), edge_weight=np.ones(3))

    def test_num_nodes_inferred_from_features(self):
        g = Graph(np.array([[0], [1]]), features=np.zeros((7, 1)))
        assert g.num_nodes == 7

    def test_num_nodes_inferred_from_edges(self):
        g = Graph(np.array([[0, 3], [1, 2]]))
        assert g.num_nodes == 4

    def test_isolated_nodes_allowed(self):
        g = Graph(np.array([[0], [1]]), num_nodes=10)
        assert g.num_nodes == 10
        assert g.in_degrees()[9] == 0

    def test_empty_graph(self):
        g = Graph(np.zeros((2, 0), dtype=np.int64), num_nodes=4)
        assert g.num_edges == 0
        assert list(g.degrees()) == [0, 0, 0, 0]


class TestDerivedStructure:
    def test_degrees(self, triangle):
        assert list(triangle.in_degrees()) == [1, 1, 1]
        assert list(triangle.out_degrees()) == [1, 1, 1]
        assert list(triangle.degrees()) == [2, 2, 2]

    def test_degrees_equal_the_add_at_reference(self):
        """The bincount histograms are the scatter-add loop's, exactly:
        duplicate edges, isolated nodes and an empty edge list included."""
        rng = np.random.default_rng(0)
        for num_nodes, num_edges in ((1, 0), (5, 0), (7, 40), (50, 30)):
            g = Graph(rng.integers(0, num_nodes, size=(2, num_edges)),
                      num_nodes=num_nodes)
            for measured, index in ((g.in_degrees(), g.dst),
                                    (g.out_degrees(), g.src)):
                reference = np.zeros(num_nodes, dtype=np.int64)
                np.add.at(reference, index, 1)
                assert measured.dtype == np.int64
                assert np.array_equal(measured, reference)

    def test_edge_values_default_to_ones(self, triangle):
        assert np.all(triangle.edge_values() == 1.0)

    def test_edge_values_use_weights(self):
        g = Graph(np.array([[0], [1]]), edge_weight=np.array([2.5]), num_nodes=2)
        assert g.edge_values()[0] == pytest.approx(2.5)


class TestFormatExports:
    def test_adjacency_orientation(self, triangle):
        dense = triangle.adjacency_coo().to_dense().array
        # A[dst, src] = 1 for edge src->dst.
        assert dense[1, 0] == 1.0
        assert dense[0, 1] == 0.0

    def test_all_exports_agree(self, triangle):
        dense = triangle.adjacency_coo().to_dense().array
        assert np.allclose(triangle.adjacency_csr().to_dense().array, dense)
        assert np.allclose(triangle.adjacency_csc().to_dense().array, dense)

    def test_aggregation_via_adjacency(self, triangle):
        # A @ X sums in-neighbour features: node 1 receives node 0's feature.
        out = triangle.adjacency_csr().matmul(triangle.features)
        assert np.allclose(out[1], triangle.features[0])


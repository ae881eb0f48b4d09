"""Tests for the GAT extension model, run as its plan."""

import numpy as np
import pytest

from repro.core.kernels import record_launches
from repro.core.models import build_model
from repro.core.models.gat import GAT, _leaky_relu
from repro.errors import ModelError
from repro.graph import Graph, add_self_loops
from strategies import run_lowered


@pytest.fixture
def graph():
    rng = np.random.default_rng(0)
    edge_index = rng.integers(0, 20, size=(2, 60))
    features = rng.standard_normal((20, 10)).astype(np.float32)
    return Graph(edge_index, features=features, name="toy")


def dense_gat_layer(model, layer, x, graph):
    """Straightforward dense reference of one GAT layer."""
    params = model.weights[layer]
    looped = add_self_loops(graph)
    src, dst = looped.edge_index
    h = x @ params["W"]
    logits = _leaky_relu(h[src] @ params["a_src"] + h[dst] @ params["a_dst"])
    out = np.zeros((graph.num_nodes, h.shape[1]), dtype=np.float64)
    for v in range(graph.num_nodes):
        edges = np.flatnonzero(dst == v)
        if edges.size == 0:
            continue
        weights = np.exp(logits[edges] - logits[edges].max())
        weights = weights / weights.sum()
        out[v] = (weights[:, None] * h[src[edges]]).sum(axis=0)
    return out + params["b"]


class TestGAT:
    def test_registered(self):
        model = build_model("gat", 10, 8, 4)
        assert isinstance(model, GAT)

    def test_spmm_unsupported(self):
        with pytest.raises(ModelError):
            build_model("gat", 10, 8, 4, compute_model="SpMM")

    def test_matches_dense_reference(self, graph):
        model = GAT(10, 8, 4, num_layers=1, seed=0)
        out = run_lowered(model, graph)
        expected = dense_gat_layer(model, 0, graph.features, graph)
        assert np.allclose(out, expected, atol=1e-3)

    def test_attention_is_convex_combination(self, graph):
        """With identical inputs, attention output equals that input
        (softmax weights sum to one)."""
        model = GAT(10, 8, 8, num_layers=1, seed=1)
        uniform = np.ones((graph.num_nodes, 10), dtype=np.float32)
        out = run_lowered(model, graph, features=uniform)
        h_row = (uniform[0] @ model.weights[0]["W"]) + model.weights[0]["b"]
        assert np.allclose(out, np.tile(h_row, (graph.num_nodes, 1)),
                           atol=1e-4)

    def test_two_layer_shapes(self, graph):
        model = build_model("gat", 10, 8, 3, num_layers=2)
        assert run_lowered(model, graph).shape == (20, 3)

    def test_decomposes_into_core_kernels(self, graph):
        model = build_model("gat", 10, 8, 3)
        with record_launches() as recorder:
            run_lowered(model, graph)
        kernels = {l.kernel for l in recorder.launches}
        assert kernels == {"sgemm", "indexSelect", "scatter"}
        # Edge softmax uses the max reduction of scatter.
        assert any(l.tag == "max" or "gat" in l.tag
                   for l in recorder.launches if l.kernel == "scatter")

    def test_isolated_node_attends_to_itself(self):
        g = Graph(np.array([[0], [1]]), num_nodes=3,
                  features=np.eye(3, dtype=np.float32))
        model = GAT(3, 4, 2, num_layers=1, seed=2)
        out = run_lowered(model, g)
        params = model.weights[0]
        expected = g.features[2] @ params["W"] + params["b"]
        assert np.allclose(out[2], expected, atol=1e-4)

    def test_deterministic(self, graph):
        a = run_lowered(GAT(10, 8, 4, seed=5), graph)
        b = run_lowered(GAT(10, 8, 4, seed=5), graph)
        assert np.array_equal(a, b)

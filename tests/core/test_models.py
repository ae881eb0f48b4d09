"""Unit tests for the GNN models (GCN, GIN, SAGE), run as their plans.

Every plan against the float64 oracle, on any graph, is
``tests/plan/test_parity.py``'s property.
"""

import numpy as np
import pytest

from repro.core.kernels import record_launches
from repro.core.models import (
    GCN,
    GIN,
    MODEL_NAMES,
    SAGE,
    GNNModel,
    build_model,
    get_model_class,
    layer_dimensions,
    register_model,
)
from repro.core.models.activations import get_activation, relu, sigmoid
from repro.errors import ModelError
from repro.frameworks import PipelineSpec, get_backend
from repro.graph import Graph, add_self_loops, normalized_adjacency
from strategies import run_lowered


@pytest.fixture
def graph():
    rng = np.random.default_rng(0)
    edge_index = rng.integers(0, 30, size=(2, 120))
    features = rng.standard_normal((30, 12)).astype(np.float32)
    return Graph(edge_index, features=features, name="toy")


class TestLayerDimensions:
    def test_single_layer(self):
        assert layer_dimensions(10, 16, 3, 1) == [(10, 3)]

    def test_two_layers(self):
        assert layer_dimensions(10, 16, 3, 2) == [(10, 16), (16, 3)]

    def test_deep_stack(self):
        dims = layer_dimensions(10, 16, 3, 4)
        assert dims == [(10, 16), (16, 16), (16, 16), (16, 3)]

    def test_invalid(self):
        with pytest.raises(ModelError):
            layer_dimensions(10, 16, 3, 0)
        with pytest.raises(ModelError):
            layer_dimensions(0, 16, 3, 2)


class TestActivations:
    def test_relu(self):
        assert np.allclose(relu(np.array([-1.0, 2.0])), [0.0, 2.0])

    def test_sigmoid_range_and_symmetry(self):
        x = np.linspace(-20, 20, 41)
        y = sigmoid(x)
        assert np.all((y > 0) & (y < 1))
        assert np.allclose(y + sigmoid(-x), 1.0, atol=1e-6)

    def test_unknown_activation(self):
        with pytest.raises(ModelError):
            get_activation("gelu")


class TestModelConstruction:
    def test_registry_contains_paper_models(self):
        assert MODEL_NAMES == ("gcn", "gin", "sage")

    def test_aliases(self):
        assert get_model_class("SAG") is SAGE
        assert get_model_class("GraphSAGE") is SAGE

    def test_unknown_model(self):
        """GAT, once an extension model, is gone from the registry; a
        plug-in model arrives through ``register_model``."""
        for name in ("transformer", "gat"):
            with pytest.raises(ModelError, match=f"unknown model '{name}'"):
                build_model(name, 8, 16, 3)

    def test_sage_rejects_spmm(self):
        with pytest.raises(ModelError):
            build_model("sage", 8, 16, 3, compute_model="SpMM")

    def test_unknown_activation(self):
        """Refused when the model is built, not when a plan runs."""
        with pytest.raises(ModelError, match="gelu"):
            build_model("gcn", 8, 16, 3, activation="gelu")

    def test_unknown_compute_model(self):
        with pytest.raises(ModelError):
            build_model("gcn", 8, 16, 3, compute_model="TPU")

    def test_deterministic_weights(self):
        a = build_model("gcn", 8, 16, 3, seed=7)
        b = build_model("gcn", 8, 16, 3, seed=7)
        for la, lb in zip(a.weights, b.weights):
            assert np.array_equal(la["W"], lb["W"])

    def test_different_seeds_differ(self):
        a = build_model("gcn", 8, 16, 3, seed=1)
        b = build_model("gcn", 8, 16, 3, seed=2)
        assert not np.array_equal(a.weights[0]["W"], b.weights[0]["W"])

    def test_parameter_count(self):
        model = build_model("gcn", 8, 16, 3, num_layers=2)
        # layer 1: 8*16 + 16 ; layer 2: 16*3 + 3
        count = sum(np.asarray(v).size
                    for layer in model.weights for v in layer.values())
        assert count == 8 * 16 + 16 + 16 * 3 + 3

    def test_register_model(self):
        class Custom(GNNModel):
            name = "custom-test"

            def lower_layer(self, layer, x, builder, state, fmt):
                weight = builder.constant(self.weights[layer]["W"], name="W")
                return builder.sgemm(x, weight, tag="custom")

        register_model("custom-test", Custom)
        try:
            model = build_model("custom-test", 12, 8, 4)
            assert model.dims[-1][1] == 4
            with pytest.raises(ModelError):
                register_model("custom-test", Custom)
        finally:
            from repro.core.models.registry import MODELS
            MODELS.pop("custom-test", None)

    def test_register_rejects_non_model(self):
        with pytest.raises(ModelError):
            register_model("bad", dict)
        with pytest.raises(ModelError):
            register_model("", GCN)


def _pipeline(graph, **spec):
    return get_backend("gsuite").build(PipelineSpec(**spec), graph)


class TestForward:
    """A built pipeline runs the model's plan end to end."""

    def test_output_shape(self, graph):
        for name in MODEL_NAMES:
            out = _pipeline(graph, model=name, out_features=5).run()
            assert out.shape == (30, 5)
            assert out.dtype == np.float32

    def test_requires_features(self):
        g = Graph(np.array([[0], [1]]), num_nodes=2)
        with pytest.raises(ModelError):
            run_lowered(build_model("gcn", 4, 8, 2), g)

    def test_feature_override(self, graph):
        alt = np.zeros((30, 12), dtype=np.float32)
        out = _pipeline(graph, out_features=5).run(features=alt)
        # Zero input with zero bias propagates to zero logits.
        assert np.allclose(out, 0.0)

    def test_wrong_feature_shape(self, graph):
        with pytest.raises(ModelError):
            _pipeline(graph, out_features=5).run(
                features=np.zeros((30, 99), dtype=np.float32))

    def test_num_layers_respected(self, graph):
        with record_launches() as rec:
            _pipeline(graph, out_features=5, num_layers=3).run()
        sgemms = [l for l in rec.launches if l.kernel == "sgemm"]
        assert len(sgemms) == 3  # one transform per layer


class TestGCNSemantics:
    def test_matches_closed_form(self, graph):
        """One GCN layer equals P @ X @ W + b with P the normalised
        adjacency — the literal Eq. 2."""
        model = GCN(12, 16, 5, num_layers=1, compute_model="MP", seed=0)
        out = run_lowered(model, graph)
        P = normalized_adjacency(graph).to_dense().array
        expected = P @ graph.features @ model.weights[0]["W"] + model.weights[0]["b"]
        assert np.allclose(out, expected, atol=1e-3)

    def test_mp_equals_spmm(self, graph):
        mp = GCN(12, 16, 5, compute_model="MP", seed=4)
        sp = GCN(12, 16, 5, compute_model="SpMM", seed=4)
        assert np.allclose(run_lowered(mp, graph), run_lowered(sp, graph),
                           atol=1e-3)

    def test_spmm_records_spgemm_launches(self, graph):
        model = GCN(12, 16, 5, compute_model="SpMM")
        with record_launches() as rec:
            run_lowered(model, graph)
        kernels = [l.kernel for l in rec.launches]
        assert kernels.count("SpGEMM") == 2  # Fig. 2 normalisation chain
        assert "spmm" in kernels

    def test_mp_records_fig2_kernels(self, graph):
        model = GCN(12, 16, 5, compute_model="MP")
        with record_launches() as rec:
            run_lowered(model, graph)
        kernels = {l.kernel for l in rec.launches}
        assert kernels == {"sgemm", "indexSelect", "scatter"}


class TestGINSemantics:
    def test_matches_closed_form(self, graph):
        """One GIN layer equals MLP((A + (1+eps) I) X) — the literal Eq. 4."""
        model = GIN(12, 16, 5, num_layers=1, compute_model="MP", seed=0,
                    epsilon=0.3)
        out = run_lowered(model, graph)
        A = graph.adjacency_coo().to_dense().array
        S = A + (1.3) * np.eye(30, dtype=np.float32)
        p = model.weights[0]
        hidden = np.maximum(S @ graph.features @ p["W1"] + p["b1"], 0)
        expected = hidden @ p["W2"] + p["b2"]
        assert np.allclose(out, expected, atol=1e-3)

    def test_mp_equals_spmm(self, graph):
        mp = GIN(12, 16, 5, compute_model="MP", seed=4)
        sp = GIN(12, 16, 5, compute_model="SpMM", seed=4)
        assert np.allclose(run_lowered(mp, graph), run_lowered(sp, graph),
                           atol=1e-3)

    def test_epsilon_affects_output(self, graph):
        a = GIN(12, 16, 5, seed=0, epsilon=0.0)
        b = GIN(12, 16, 5, seed=0, epsilon=0.9)
        assert not np.allclose(run_lowered(a, graph), run_lowered(b, graph))

    def test_aggregates_at_input_width(self, graph):
        """GIN gathers raw features (unlike GCN): its indexSelect moves
        full-width rows — the paper's reason GIN kernels are heavier."""
        with record_launches() as rec:
            run_lowered(GIN(12, 16, 5, compute_model="MP"), graph)
        first_gather = next(l for l in rec.launches if l.kernel == "indexSelect")
        assert first_gather.threads == graph.num_edges * 12


class TestSAGESemantics:
    def test_matches_closed_form(self, graph):
        """One SAGE layer equals W1 x + W2 mean_{N(v)+v}(x) + b (Eq. 5)."""
        model = SAGE(12, 16, 5, num_layers=1, seed=0)
        out = run_lowered(model, graph)
        looped = add_self_loops(graph)
        A = looped.adjacency_coo().to_dense().array
        deg = np.maximum(A.sum(axis=1, keepdims=True), 1.0)
        mean = (A / deg) @ graph.features
        p = model.weights[0]
        expected = graph.features @ p["W1"] + mean @ p["W2"] + p["b"]
        assert np.allclose(out, expected, atol=1e-3)

    def test_isolated_node_sees_only_itself(self):
        g = Graph(np.array([[0], [1]]), num_nodes=3,
                  features=np.eye(3, dtype=np.float32))
        model = SAGE(3, 8, 2, num_layers=1, seed=0)
        out = run_lowered(model, g)
        p = model.weights[0]
        # Node 2 has no in-edges: mean over {2} is its own feature.
        expected = g.features[2] @ p["W1"] + g.features[2] @ p["W2"] + p["b"]
        assert np.allclose(out[2], expected, atol=1e-4)

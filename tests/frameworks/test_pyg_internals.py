"""Tests for the PyG-like backend's internal mini-framework."""

import numpy as np
import pytest

from repro.errors import BackendError
from repro.frameworks import PipelineSpec, get_backend
from repro.core.models import build_model
from repro.frameworks.pyg_like import (
    Parameter,
    _gcn_norm,
    _validate_edge_index,
)
from repro.graph import Graph, normalized_adjacency


class TestParameter:
    def test_reset_is_bounded(self):
        rng = np.random.default_rng(0)
        p = Parameter((8, 4), rng)
        bound = 1.0 / np.sqrt(8)
        assert np.all(np.abs(p.data) <= bound + 1e-6)

    def test_load_validates_shape(self):
        p = Parameter((2, 3), np.random.default_rng(0))
        with pytest.raises(BackendError):
            p.load(np.zeros((3, 2)))

    def test_load_replaces_values(self):
        p = Parameter((2, 2), np.random.default_rng(0))
        p.load(np.eye(2))
        assert np.allclose(p.data, np.eye(2))


class TestEdgeValidation:
    def test_valid_passthrough(self):
        edge_index = np.array([[0, 1], [1, 0]], dtype=np.int64)
        out = _validate_edge_index(edge_index, 2)
        assert np.array_equal(out, edge_index)

    def test_dtype_coerced(self):
        out = _validate_edge_index(np.array([[0], [1]], dtype=np.int32), 2)
        assert out.dtype == np.int64

    def test_bad_shape_rejected(self):
        with pytest.raises(BackendError):
            _validate_edge_index(np.zeros((3, 2), dtype=np.int64), 5)

    def test_out_of_bounds_rejected(self):
        with pytest.raises(BackendError):
            _validate_edge_index(np.array([[0], [9]], dtype=np.int64), 2)


class TestGcnNorm:
    def test_matches_library_normalisation(self):
        # Duplicate-free edge list (gcn_norm is unweighted, so duplicate
        # edges would be weight-2 entries on the library side).
        rng = np.random.default_rng(1)
        pairs = rng.permutation(15 * 14)[:40]
        src, dst = pairs // 14, pairs % 14
        dst = dst + (dst >= src)  # skip the diagonal
        g = Graph(np.vstack([src, dst]), num_nodes=15)
        # genuinely duplicate-free
        assert np.unique(g.edge_index, axis=1).shape[1] == 40
        full, weight = _gcn_norm(g.edge_index, g.num_nodes)
        from repro.graph.formats import COOMatrix
        assembled = COOMatrix(full[1], full[0], weight,
                              shape=(15, 15)).to_dense().array
        expected = normalized_adjacency(g).to_dense().array
        assert np.allclose(assembled, expected, atol=1e-5)

    def test_adds_all_self_loops(self):
        full, _ = _gcn_norm(np.array([[0], [1]], dtype=np.int64), 4)
        assert full.shape[1] == 1 + 4


class TestTapeAndConvs:
    def test_tape_records_operations(self):
        rng = np.random.default_rng(2)
        graph = Graph(rng.integers(0, 10, size=(2, 30)), num_nodes=10,
                      features=rng.standard_normal((10, 6)).astype(np.float32))
        pipeline = get_backend("pyg").build(
            PipelineSpec(model="gcn", out_features=4), graph)
        pipeline.run()
        ops = [node["op"] for node in pipeline._tape.nodes]
        assert "sgemm" in ops and "scatter" in ops and "index_select" in ops

    def test_tape_holds_one_forward(self):
        """Each run starts a fresh tape, as PyG builds a new autograd
        graph per forward: two runs leave one forward's nodes."""
        rng = np.random.default_rng(2)
        graph = Graph(rng.integers(0, 10, size=(2, 30)), num_nodes=10,
                      features=rng.standard_normal((10, 6)).astype(np.float32))
        pipeline = get_backend("pyg").build(
            PipelineSpec(model="gcn", out_features=4), graph)
        pipeline.run()
        once = list(pipeline._tape.nodes)
        pipeline.run()
        assert once and pipeline._tape.nodes == once

    @pytest.mark.parametrize("model", ["gcn", "gin", "sage"])
    def test_parameters_mirror_the_reference_weights(self, model):
        """PyG's conv parameters are one ``Parameter`` per entry of the
        zoo model's layer weights — same names, shapes and (loaded)
        values — so a layer's shapes, GIN's MLP width included, have
        one source: the model's ``_init_layer``."""
        rng = np.random.default_rng(3)
        graph = Graph(rng.integers(0, 10, size=(2, 30)), num_nodes=10,
                      features=rng.standard_normal((10, 5)).astype(np.float32))
        spec = PipelineSpec(model=model, hidden=4, out_features=3, seed=7)
        pipeline = get_backend("pyg").build(spec, graph)
        reference = build_model(model, in_features=5, hidden=4,
                                out_features=3, seed=7)
        assert len(pipeline.parameters) == len(reference.weights) == 2
        for parameters, weights in zip(pipeline.parameters,
                                       reference.weights):
            assert list(parameters) == list(weights)
            for name, parameter in parameters.items():
                assert parameter.shape == weights[name].shape
                assert np.array_equal(parameter.data, weights[name])

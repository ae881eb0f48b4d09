"""Request validation and the zero-padding width shim.

A malformed request must die at construction — the service's queue
only ever holds buildable work — and the padding shim must preserve
everything except the appended zero columns, refusing the two unsafe
cases (featureless graphs, narrowing).
"""

import numpy as np
import pytest

from repro.errors import ServeError
from repro.graph import Graph
from repro.serve import InferenceRequest, pad_features


def _graph(width=4, nodes=6, seed=0, name="g"):
    rng = np.random.default_rng(seed)
    src = rng.integers(0, nodes, size=2 * nodes)
    dst = rng.integers(0, nodes, size=2 * nodes)
    return Graph(np.vstack([src, dst]).astype(np.int64), num_nodes=nodes,
                 features=rng.standard_normal((nodes, width))
                 .astype(np.float32), name=name)


class TestRequestValidation:
    def test_dataset_request_constructs(self):
        req = InferenceRequest(request_id="r1", dataset="cora", scale=0.1)
        assert req.resolved_out_features() == 7      # cora class count

    def test_graph_request_constructs(self):
        req = InferenceRequest(request_id="r1", graph=_graph(),
                               out_features=3)
        assert req.resolve_graph() is req.graph

    def test_empty_request_id_rejected(self):
        with pytest.raises(ServeError, match="request_id"):
            InferenceRequest(request_id="", dataset="cora")

    @pytest.mark.parametrize("kwargs", [
        {},                                          # neither workload
        {"dataset": "cora", "graph": None},          # still neither
    ])
    def test_missing_workload_rejected(self, kwargs):
        kwargs.pop("graph", None)
        if not kwargs:
            with pytest.raises(ServeError, match="exactly one"):
                InferenceRequest(request_id="r1")

    def test_both_workloads_rejected(self):
        with pytest.raises(ServeError, match="exactly one"):
            InferenceRequest(request_id="r1", dataset="cora",
                             graph=_graph(), out_features=3)

    def test_featureless_graph_rejected(self):
        bare = Graph(np.array([[0], [1]]), num_nodes=2)
        with pytest.raises(ServeError, match="features"):
            InferenceRequest(request_id="r1", graph=bare, out_features=3)

    def test_graph_without_out_features_rejected(self):
        with pytest.raises(ServeError, match="out_features"):
            InferenceRequest(request_id="r1", graph=_graph())

    def test_unknown_dataset_rejected(self):
        with pytest.raises(ServeError, match="r1"):
            InferenceRequest(request_id="r1", dataset="not-a-dataset")

    def test_unknown_framework_rejected(self):
        with pytest.raises(ServeError, match="framework"):
            InferenceRequest(request_id="r1", dataset="cora",
                             framework="torch")

    def test_bad_scale_rejected(self):
        with pytest.raises(ServeError, match="scale"):
            InferenceRequest(request_id="r1", dataset="cora", scale=0.0)

    def test_bad_geometry_rejected(self):
        with pytest.raises(ServeError, match="r1"):
            InferenceRequest(request_id="r1", dataset="cora", num_layers=0)

    def test_unknown_model_rejected(self):
        """An unknown model name must die here, not on the worker (it
        used to kill the drain task)."""
        for model in ("foo", "gat"):
            with pytest.raises(ServeError, match=f"unknown model '{model}'"):
                InferenceRequest(request_id="r1", dataset="cora",
                                 model=model)

    @pytest.mark.parametrize("field, value", [
        ("request_id", 5), ("dataset", []), ("model", 3),
        ("framework", []), ("compute_model", None), ("activation", {}),
        ("hidden", "8"), ("num_layers", True), ("seed", 1.5),
        ("out_features", 2.0), ("scale", "0.1"), ("scale", False)])
    def test_mistyped_field_rejected(self, field, value):
        """Each used to escape as an untyped error (``AttributeError``
        from ``from_dict`` or ``submit``, ``TypeError``), which killed
        the TCP connection without a reply."""
        payload = {"request_id": "r1", "dataset": "cora", "scale": 0.1,
                   field: value}
        with pytest.raises(ServeError, match=f"'{field}' must be"):
            InferenceRequest.from_dict(payload)

    @pytest.mark.parametrize("field", [
        "hidden", "num_layers", "seed", "out_features", "scale"])
    @pytest.mark.parametrize("value", [10 ** 400, 2 ** 63, -2 ** 63 - 1],
                             ids=["1e400", "2**63", "-2**63-1"])
    def test_integer_past_int64_rejected(self, field, value):
        """``json.loads`` yields arbitrarily long ints; one past int64
        used to pass construction and kill the drain task later
        (an ``OverflowError`` in a float conversion)."""
        fields = {"request_id": "x", "dataset": "cora", "scale": 0.1,
                  field: value}
        with pytest.raises(ServeError, match=f"'{field}' must be within "
                                             f"the int64 range"):
            InferenceRequest(**fields)


    @pytest.mark.parametrize("field, value, message", [
        ("seed", -1, "seed must be >= 0, got -1"),
        ("compute_model", "XX", "unknown compute_model 'XX'"),
        ("activation", "nope", "unknown activation 'nope'")])
    def test_unbuildable_names_and_seeds_rejected(self, field, value,
                                                  message):
        """A negative seed used to escape as numpy's untyped
        ``ValueError`` from the dataset generator on submit; an unknown
        compute model or activation failed only when the request was
        built, on the drain task."""
        with pytest.raises(ServeError, match=f"'r1': {message}"):
            InferenceRequest(request_id="r1", dataset="cora", scale=0.1,
                             **{field: value})
        with pytest.raises(ServeError, match=message):
            InferenceRequest(request_id="r1", graph=_graph(),
                             out_features=3, **{field: value})

    def test_known_names_construct(self):
        for compute_model in ("MP", "SpMM"):
            for activation in ("relu", "sigmoid", "identity"):
                InferenceRequest(request_id="r1", dataset="cora",
                                 compute_model=compute_model,
                                 activation=activation, seed=0)


class TestWireForm:
    def test_dataset_round_trip(self):
        req = InferenceRequest(request_id="r1", dataset="cora",
                               model="gin", hidden=8, scale=0.2)
        assert InferenceRequest.from_dict(req.to_dict()) == req

    def test_graph_round_trip(self):
        req = InferenceRequest(request_id="r1", graph=_graph(width=3),
                               out_features=4)
        back = InferenceRequest.from_dict(req.to_dict())
        assert back.request_id == req.request_id
        assert back.out_features == 4
        assert np.array_equal(back.graph.features, req.graph.features)
        assert np.array_equal(back.graph.edge_index, req.graph.edge_index)

    def test_unknown_keys_refused(self):
        with pytest.raises(ServeError, match="unknown request keys"):
            InferenceRequest.from_dict(
                {"request_id": "r1", "dataset": "cora", "modle": "gcn"})

    def test_non_object_payload_refused(self):
        with pytest.raises(ServeError, match="JSON object"):
            InferenceRequest.from_dict(["not", "a", "dict"])

    def test_inline_graph_needs_edge_index(self):
        with pytest.raises(ServeError, match="edge_index"):
            InferenceRequest.from_dict(
                {"request_id": "r1", "graph": {"features": [[1.0]]},
                 "out_features": 2})

    def test_zero_width_inline_features_refused(self):
        """Zero columns used to reach the planner and kill the service's
        drain task (``dimensions must be positive``)."""
        with pytest.raises(ServeError, match="at least one column"):
            InferenceRequest.from_dict(
                {"request_id": "r1", "out_features": 2,
                 "graph": {"edge_index": [[0, 1], [1, 2]],
                           "features": [[], [], []], "num_nodes": 3}})

    @pytest.mark.parametrize("bad", (float("nan"), float("inf")))
    def test_non_finite_inline_features_refused(self, bad):
        with pytest.raises(ServeError, match="bad inline graph.*NaN or inf"):
            InferenceRequest.from_dict(
                {"request_id": "r1", "out_features": 2,
                 "graph": {"edge_index": [[0], [1]],
                           "features": [[1.0], [bad]]}})

    @pytest.mark.parametrize("graph", [
        {"edge_index": {}},
        {"edge_index": [[0], [1]], "features": {}},
        {"edge_index": [[0], ["a"]], "features": [[1.0], [2.0]]},
        {"edge_index": [[0], [1]], "features": [[1.0], [2.0, 3.0]]},
        {"edge_index": [[0], [1]], "features": [[1.0], [2.0]],
         "num_nodes": []},
    ])
    def test_mistyped_inline_arrays_refused(self, graph):
        with pytest.raises(ServeError, match="bad inline graph"):
            InferenceRequest.from_dict(
                {"request_id": "r1", "out_features": 2, "graph": graph})

    def test_out_of_range_inline_ids_refused(self):
        with pytest.raises(ServeError, match="bad inline graph"):
            InferenceRequest.from_dict(
                {"request_id": "r1", "out_features": 2,
                 "graph": {"edge_index": [[0], [7]],
                           "features": [[1.0], [2.0]], "num_nodes": 2}})


class TestPadding:
    def test_same_width_is_identity(self):
        g = _graph(width=5)
        assert pad_features(g, 5) is g

    def test_pads_with_zero_columns(self):
        g = _graph(width=3)
        padded = pad_features(g, 8)
        assert padded.features.shape == (g.num_nodes, 8)
        assert padded.features.dtype == np.float32
        assert np.array_equal(padded.features[:, :3], g.features)
        assert not padded.features[:, 3:].any()
        assert np.array_equal(padded.edge_index, g.edge_index)
        assert padded.num_nodes == g.num_nodes
        assert padded.name == f"{g.name}+pad8"

    def test_narrowing_refused(self):
        with pytest.raises(ServeError, match="only widens"):
            pad_features(_graph(width=6), 4)

    def test_featureless_refused(self):
        bare = Graph(np.array([[0], [1]]), num_nodes=2)
        with pytest.raises(ServeError, match="without features"):
            pad_features(bare, 4)

    def test_padded_solo_runs_differ_from_unpadded(self):
        """The documented contract: padding re-draws the first layer's
        seeded weights, so the pad width is part of the arithmetic."""
        from repro.serve import solo_reference
        req = InferenceRequest(request_id="r1", graph=_graph(width=3),
                               out_features=4)
        narrow = solo_reference(req)
        wide = solo_reference(req, pad_to=9)
        assert narrow.shape == wide.shape            # head width unchanged
        assert not np.array_equal(narrow, wide)

    def test_row_sparse_x_pads_row_sparse(self):
        """A CSR-backed X pads by widening its CSR: its dense view is
        the dense padding, byte for byte."""
        from repro.datasets import load_dataset
        g = load_dataset("cora", scale=0.1)
        padded = pad_features(g, 3703)
        assert padded.stored_features.shape == (g.num_nodes, 3703)
        assert not padded.dense_view_built and not g.dense_view_built
        dense = np.zeros((g.num_nodes, 3703), dtype=np.float32)
        dense[:, :g.num_features] = g.stored_features.toarray()
        assert padded.features.tobytes() == dense.tobytes()

    @pytest.mark.parametrize("dataset, width", [("cora", 3703),
                                                ("pubmed", 1433)])
    def test_padded_reference_equals_dense_padded_twin(self, dataset,
                                                        width):
        from repro.frameworks import get_backend
        from repro.serve import solo_reference
        req = InferenceRequest(request_id="r1", dataset=dataset, scale=0.1,
                               out_features=8)
        g = req.resolve_graph()
        dense = np.zeros((g.num_nodes, width), dtype=np.float32)
        dense[:, :g.num_features] = g.stored_features.toarray()
        twin = Graph(g.edge_index, features=dense, num_nodes=g.num_nodes,
                     edge_weight=g.edge_weight)
        expected = get_backend("gsuite").build(req.pipeline_spec(),
                                               twin).run()
        assert np.array_equal(solo_reference(req, pad_to=width), expected)

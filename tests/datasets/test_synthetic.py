"""Tests for the synthetic graph/feature generators."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import get_spec, scaled_spec
from repro.datasets.synthetic import (
    generate_graph,
    power_law_weights,
    sample_edges,
    synthesize_features,
)
from repro.errors import DatasetError
from repro.graph.validate import validate_graph


class TestPowerLawWeights:
    def test_mean_is_one(self):
        rng = np.random.default_rng(0)
        w = power_law_weights(10_000, 2.5, rng)
        assert w.mean() == pytest.approx(1.0)

    def test_heavy_tail_present(self):
        rng = np.random.default_rng(1)
        w = power_law_weights(10_000, 2.3, rng)
        # A power law puts meaningful mass far above the mean.
        assert w.max() > 5.0

    def test_lower_exponent_means_heavier_tail(self):
        rng_a = np.random.default_rng(2)
        rng_b = np.random.default_rng(2)
        heavy = power_law_weights(20_000, 2.1, rng_a)
        light = power_law_weights(20_000, 3.5, rng_b)
        assert heavy.max() > light.max()

    def test_invalid_arguments(self):
        rng = np.random.default_rng(0)
        with pytest.raises(DatasetError):
            power_law_weights(0, 2.5, rng)
        with pytest.raises(DatasetError):
            power_law_weights(10, 1.0, rng)


class TestSampleEdges:
    def test_exact_edge_count(self):
        spec = scaled_spec(get_spec("pubmed"), 0.2)
        rng = np.random.default_rng(3)
        edges = sample_edges(spec, rng)
        assert edges.shape == (2, spec.num_edges)

    def test_no_self_loops(self):
        spec = scaled_spec(get_spec("cora"), 0.5)
        edges = sample_edges(spec, np.random.default_rng(4))
        assert not np.any(edges[0] == edges[1])

    def test_no_duplicate_edges(self):
        spec = scaled_spec(get_spec("cora"), 0.5)
        edges = sample_edges(spec, np.random.default_rng(5))
        keys = edges[0] * np.int64(spec.num_nodes) + edges[1]
        assert np.unique(keys).size == keys.size

    def test_ids_in_range(self):
        spec = scaled_spec(get_spec("citeseer"), 0.3)
        edges = sample_edges(spec, np.random.default_rng(6))
        assert edges.min() >= 0
        assert edges.max() < spec.num_nodes

    def test_impossible_budget_rejected(self):
        spec = get_spec("cora")
        dense = type(spec)(**{**spec.__dict__, "num_nodes": 3, "num_edges": 100})
        with pytest.raises(DatasetError):
            sample_edges(dense, np.random.default_rng(0))

    def test_degree_skew_matches_exponent_ordering(self):
        # Reddit (alpha=2.3) must be more hub-dominated than Cora-like
        # specs (alpha=2.9) at the same size.
        base = scaled_spec(get_spec("pubmed"), 0.25)
        social = type(base)(**{**base.__dict__, "degree_exponent": 2.1})
        cite = type(base)(**{**base.__dict__, "degree_exponent": 3.4})
        deg = {}
        for tag, spec in (("social", social), ("cite", cite)):
            edges = sample_edges(spec, np.random.default_rng(7))
            counts = np.bincount(edges[1], minlength=spec.num_nodes)
            deg[tag] = counts.max() / counts.mean()
        assert deg["social"] > deg["cite"]


class TestFeatures:
    def test_bag_of_words_is_binary_and_sparse(self):
        spec = scaled_spec(get_spec("cora"), 0.2)
        feats = synthesize_features(spec, np.random.default_rng(8))
        assert sp.isspmatrix_csr(feats)         # born row-sparse
        assert feats.shape == (spec.num_nodes, spec.feature_length)
        assert set(np.unique(feats.toarray())).issubset({0.0, 1.0})
        density = feats.nnz / (feats.shape[0] * feats.shape[1])
        assert density < 0.05

    def test_dense_features_are_continuous(self):
        spec = scaled_spec(get_spec("reddit"), 0.002)
        feats = synthesize_features(spec, np.random.default_rng(9))
        assert feats.dtype == np.float32
        assert np.std(feats) == pytest.approx(1.0, rel=0.1)

    def test_scalar_features(self):
        spec = scaled_spec(get_spec("livejournal"), 0.0005)
        feats = synthesize_features(spec, np.random.default_rng(10))
        assert feats.shape[1] == 1
        assert feats.min() >= 0.0
        assert feats.max() <= 1.0

    def test_unknown_style_rejected(self):
        spec = get_spec("cora")
        bad = type(spec)(**{**spec.__dict__, "feature_style": "mystery"})
        with pytest.raises(DatasetError):
            synthesize_features(bad, np.random.default_rng(0))


class TestGenerateGraph:
    def test_full_cora_matches_spec(self):
        g = generate_graph(get_spec("cora"), seed=0)
        validate_graph(g)
        assert g.num_nodes == 2_708
        assert g.num_edges == 5_429
        assert g.num_features == 1_433

    def test_determinism_across_calls(self):
        spec = scaled_spec(get_spec("pubmed"), 0.1)
        a = generate_graph(spec, seed=11)
        b = generate_graph(spec, seed=11)
        assert np.array_equal(a.edge_index, b.edge_index)
        assert np.array_equal(a.features, b.features)

    def test_different_seeds_differ(self):
        spec = scaled_spec(get_spec("cora"), 0.3)
        a = generate_graph(spec, seed=1)
        b = generate_graph(spec, seed=2)
        assert not np.array_equal(a.edge_index, b.edge_index)

    def test_different_datasets_differ_at_same_seed(self):
        ca = scaled_spec(get_spec("cora"), 0.5)
        cb = type(ca)(**{**ca.__dict__, "name": "citeseer"})
        a = generate_graph(ca, seed=0, with_features=False)
        b = generate_graph(cb, seed=0, with_features=False)
        assert not np.array_equal(a.edge_index, b.edge_index)

    def test_without_features(self):
        g = generate_graph(scaled_spec(get_spec("cora"), 0.2), with_features=False)
        assert g.features is None


@settings(max_examples=15, deadline=None)
@given(st.sampled_from(["cora", "citeseer", "pubmed"]),
       st.floats(0.05, 0.5), st.integers(0, 1000))
def test_generated_graphs_always_valid(name, scale, seed):
    """Property: every generated graph passes structural validation and
    meets its spec exactly."""
    spec = scaled_spec(get_spec(name), scale)
    g = generate_graph(spec, seed=seed, with_features=False)
    validate_graph(g)
    assert g.num_nodes == spec.num_nodes
    assert g.num_edges == spec.num_edges

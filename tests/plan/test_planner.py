"""Tests for the cost-model planner and the gsuite-adaptive backend.

The acceptance contract: the planner must select SpMM on the
social-network workloads (reddit, livejournal) and MP on the citation
workloads (cora, citeseer) — from the full-size Table IV specs *and*
from scaled live graphs (scaling preserves average degree, hence the
decision).
"""

import numpy as np
import pytest

from repro.core.models import build_model
from repro.datasets import get_spec, load_dataset
from repro.errors import ModelError
from repro.frameworks import get_backend, PipelineSpec
from repro.plan import (
    GraphStats,
    choose_formats,
    explain_choice,
    mp_layer_cost,
    spmm_layer_cost,
    spmm_setup_cost,
)

#: dataset -> format every layer must use, per the paper-scale stats.
EXPECTED = {
    "cora": "MP",
    "citeseer": "MP",
    "pubmed": "MP",
    "reddit": "SpMM",
    "livejournal": "SpMM",
}


def _dims(spec):
    return [(spec.feature_length, 16), (16, spec.num_classes)]


class TestGraphStats:
    def test_from_spec_matches_table_iv(self):
        stats = GraphStats.from_spec(get_spec("reddit"))
        assert stats.num_nodes == 232_965
        assert stats.avg_degree == pytest.approx(49.8, abs=0.1)
        assert stats.degree_skew > 1.0

    def test_from_graph_measures_live_workload(self):
        graph = load_dataset("cora", scale=0.2, seed=0)
        stats = GraphStats.from_graph(graph)
        assert stats.num_nodes == graph.num_nodes
        assert stats.num_edges == graph.num_edges
        assert stats.feature_width == graph.num_features
        assert stats.degree_skew >= 1.0

    def test_scaling_preserves_average_degree(self):
        full = GraphStats.from_spec(get_spec("reddit"))
        scaled = GraphStats.from_graph(load_dataset("reddit", scale=0.005,
                                                    seed=0))
        assert scaled.avg_degree == pytest.approx(full.avg_degree, rel=0.15)


class TestFormatSelection:
    @pytest.mark.parametrize("dataset,expected", sorted(EXPECTED.items()))
    def test_full_size_spec_decision(self, dataset, expected):
        spec = get_spec(dataset)
        formats = choose_formats(_dims(spec), GraphStats.from_spec(spec))
        assert formats == (expected, expected)

    @pytest.mark.parametrize("dataset,scale", [
        ("cora", 0.3), ("citeseer", 0.3), ("reddit", 0.005),
        ("livejournal", 0.001),
    ])
    def test_scaled_graph_decision_matches(self, dataset, scale):
        graph = load_dataset(dataset, scale=scale, seed=0)
        spec = get_spec(dataset)
        formats = choose_formats(_dims(spec), GraphStats.from_graph(graph))
        assert set(formats) == {EXPECTED[dataset]}

    def test_mp_only_models_never_flip(self):
        stats = GraphStats.from_spec(get_spec("reddit"))
        formats = choose_formats(_dims(get_spec("reddit")), stats,
                                 allowed=("MP",))
        assert formats == ("MP", "MP")

    def test_spmm_only_selection(self):
        stats = GraphStats.from_spec(get_spec("cora"))
        formats = choose_formats(_dims(get_spec("cora")), stats,
                                 allowed=("SpMM",))
        assert formats == ("SpMM", "SpMM")

    def test_costs_scale_with_edges(self):
        small = GraphStats.from_spec(get_spec("cora"))
        large = GraphStats.from_spec(get_spec("reddit"))
        assert mp_layer_cost(large, 64) > mp_layer_cost(small, 64)
        assert spmm_layer_cost(large, 64) > spmm_layer_cost(small, 64)
        assert spmm_setup_cost(large) > spmm_setup_cost(small)

    def test_explain_choice_mentions_every_layer(self):
        spec = get_spec("cora")
        text = explain_choice(_dims(spec), GraphStats.from_spec(spec))
        assert "layer 0" in text and "layer 1" in text


class TestCalibratedWidths:
    """The per-model aggregation-width hook (ROADMAP calibration fix).

    GCN's transform-first MP path multiplies by ``W`` *before* the
    gather/scatter pair, so its MP aggregation runs at the layer's
    output width; its SpMM path propagates raw features at the input
    width.  Input-width aggregators (GIN, SAGE) keep the default.
    """

    def test_hook_defaults_to_input_width(self):
        from repro.core.models import get_model_class
        for name in ("gin", "sage"):
            cls = get_model_class(name)
            assert cls.aggregation_width("MP", 128, 16) == 128
            assert cls.aggregation_width("SpMM", 128, 16) == 128

    def test_gcn_hook_is_format_aware(self):
        from repro.core.models import get_model_class
        gcn = get_model_class("gcn")
        assert gcn.aggregation_width("MP", 128, 16) == 16
        assert gcn.aggregation_width("SpMM", 128, 16) == 128
        gat = get_model_class("gat")
        assert gat.aggregation_width("MP", 128, 16) == 16

    #: The corrected full-size decisions, per model: GCN's Reddit plan
    #: is *mixed* (wide-input layer stays on transform-first MP, the
    #: narrow second layer flips), LiveJournal's width-1 features keep
    #: it all-SpMM, and the input-width aggregators are unchanged.
    CALIBRATED = {
        ("gcn", "cora"): ("MP", "MP"),
        ("gcn", "reddit"): ("MP", "SpMM"),
        ("gcn", "livejournal"): ("SpMM", "SpMM"),
        ("gin", "cora"): ("MP", "MP"),
        ("gin", "reddit"): ("SpMM", "SpMM"),
        ("gin", "livejournal"): ("SpMM", "SpMM"),
        ("sage", "reddit"): ("SpMM", "SpMM"),
    }

    @pytest.mark.parametrize("model,dataset", sorted(CALIBRATED))
    def test_full_size_calibrated_decision(self, model, dataset):
        from repro.core.models import get_model_class
        cls = get_model_class(model)
        spec = get_spec(dataset)
        formats = choose_formats(
            _dims(spec), GraphStats.from_spec(spec),
            allowed=cls.supported_lowerings(),
            width_hook=cls.aggregation_width)
        assert formats == self.CALIBRATED[(model, dataset)]

    def test_hookless_decision_unchanged(self):
        """Without a hook the original input-width model still holds."""
        spec = get_spec("reddit")
        formats = choose_formats(_dims(spec), GraphStats.from_spec(spec))
        assert formats == ("SpMM", "SpMM")


class TestAdaptiveBackend:
    #: model -> {dataset: expected per-layer formats} on scaled live
    #: graphs with out_features=3 (scaling preserves average degree,
    #: hence the decision).
    EXPECTED_LIVE = {
        ("gcn", "cora"): ("MP", "MP"),
        ("gcn", "reddit"): ("MP", "SpMM"),
        ("gin", "cora"): ("MP", "MP"),
        ("gin", "reddit"): ("SpMM", "SpMM"),
    }

    @pytest.mark.parametrize("model,dataset,scale", [
        ("gcn", "cora", 0.3), ("gcn", "reddit", 0.005),
        ("gin", "cora", 0.3), ("gin", "reddit", 0.005),
    ])
    def test_backend_applies_planner_choice(self, model, dataset, scale):
        graph = load_dataset(dataset, scale=scale, seed=0)
        built = get_backend("gsuite-adaptive").build(
            PipelineSpec(model=model, out_features=3), graph)
        assert built.formats == self.EXPECTED_LIVE[(model, dataset)]
        assert built.plan.layer_formats == built.formats
        out = built.run()
        assert out.shape == (graph.num_nodes, 3)
        assert np.all(np.isfinite(out))

    def test_sage_lowers_to_spmm_on_reddit(self):
        """SAGE's compute model is MP-only, yet it lowers to SpMM."""
        graph = load_dataset("reddit", scale=0.005, seed=0)
        built = get_backend("gsuite-adaptive").build(
            PipelineSpec(model="sage", out_features=3), graph)
        assert set(built.formats) == {"SpMM"}
        assert np.all(np.isfinite(built.run()))

    def test_gat_stays_mp_everywhere(self):
        graph = load_dataset("reddit", scale=0.005, seed=0)
        built = get_backend("gsuite-adaptive").build(
            PipelineSpec(model="gat", out_features=3), graph)
        assert set(built.formats) == {"MP"}

    def test_figure_label(self):
        backend = get_backend("gsuite-adaptive")
        assert backend.figure_label(PipelineSpec()) == "gSuite-Adaptive"

    def test_model_rejects_unlowerable_format(self):
        graph = load_dataset("cora", scale=0.1, seed=0)
        model = build_model("gat", in_features=graph.num_features, hidden=8,
                            out_features=3, compute_model="MP")
        with pytest.raises(ModelError):
            model.lower(["SpMM", "SpMM"])

"""Tests for the Table IV dataset registry."""

import pytest

from repro.datasets import (
    DATASET_NAMES,
    DATASETS,
    SHORT_FORMS,
    get_spec,
    scaled_spec,
)
from repro.errors import DatasetError

# Table IV of the paper, verbatim.
TABLE_IV = {
    "cora": (2_708, 1_433, 5_429, "CR"),
    "citeseer": (3_327, 3_703, 4_732, "CS"),
    "pubmed": (19_717, 500, 44_438, "PB"),
    "reddit": (232_965, 602, 11_606_919, "RD"),
    "livejournal": (4_847_571, 1, 68_993_773, "LJ"),
}


class TestRegistry:
    def test_all_five_datasets_present(self):
        assert set(DATASETS) == set(TABLE_IV)
        assert DATASET_NAMES == tuple(TABLE_IV)

    @pytest.mark.parametrize("name", list(TABLE_IV))
    def test_table_iv_statistics(self, name):
        nodes, feats, edges, short = TABLE_IV[name]
        spec = get_spec(name)
        assert spec.num_nodes == nodes
        assert spec.feature_length == feats
        assert spec.num_edges == edges
        assert spec.short_form == short

    def test_short_form_lookup(self):
        assert get_spec("CR").name == "cora"
        assert get_spec("lj").name == "livejournal"
        assert SHORT_FORMS["PB"] == "pubmed"

    def test_alias_case_insensitive(self):
        assert get_spec("  CiteSeer ").name == "citeseer"

    def test_unknown_name_rejected(self):
        with pytest.raises(DatasetError):
            get_spec("ogbn-arxiv")

    def test_average_degree(self):
        spec = get_spec("cora")
        assert spec.average_degree == pytest.approx(5_429 / 2_708)


class TestScaling:
    def test_identity_scale(self):
        spec = get_spec("cora")
        assert scaled_spec(spec, 1.0) is spec

    def test_preserves_average_degree(self):
        spec = get_spec("reddit")
        small = scaled_spec(spec, 0.01)
        assert small.average_degree == pytest.approx(spec.average_degree, rel=0.05)

    def test_feature_length_unscaled(self):
        small = scaled_spec(get_spec("citeseer"), 0.1)
        assert small.feature_length == 3_703

    def test_invalid_scale_rejected(self):
        spec = get_spec("cora")
        with pytest.raises(DatasetError):
            scaled_spec(spec, 0.0)
        with pytest.raises(DatasetError):
            scaled_spec(spec, 1.5)

    def test_edge_budget_capped_at_complete_graph(self):
        # Extremely small scales must not demand more unique edges than a
        # simple graph can hold.
        small = scaled_spec(get_spec("reddit"), 0.0001)
        assert small.num_edges <= small.num_nodes * (small.num_nodes - 1)

"""Tests for the planner's cost profile: its nine fixed constants.

Two contracts:

* **Paper parity** — the constants are the paper's static Fig. 5
  values, and every cost and gate decision priced with them is pinned
  to the exact figure the planner produced when those values were
  still a loadable profile, across the same dataset grid the planner
  acceptance tests use.
* **Nothing ambient** — no environment variable or file steers a
  pipeline's decisions: the constants are module constants.
"""

import json

import pytest

from repro.datasets import get_spec, scaled_spec
from repro.plan import (
    GraphStats,
    choose_batching,
    choose_formats,
    mp_layer_cost,
    spmm_layer_cost,
    spmm_setup_cost,
)

#: Mirrors tests/plan/test_planner.py — the decisions the paper
#: constants must keep making.
EXPECTED = {
    "cora": "MP",
    "citeseer": "MP",
    "pubmed": "MP",
    "reddit": "SpMM",
    "livejournal": "SpMM",
}

#: dataset -> ((mp, spmm) layer cost at widths 4, 64, 1433; setup cost)
#: on the full-size spec.  Exact floats: a reordered expression or a
#: retuned constant shows here before it moves a decision.
COSTS = {
    "citeseer": (((2911660.99571028, 4915366.399999999),
                  (5823321.99142056, 9830732.799999999),
                  (130387818.96415097, 220116251.59999996)), 88649.0),
    "cora": (((3303033.4274030905, 4248182.399999999),
              (6606066.854806181, 8496364.799999999),
              (147913965.67089465, 190238918.09999996)), 89507.0),
    "livejournal": (((46425043080.12795, 16899016668.799997),
                     (92850086160.2559, 33798033337.599995),
                     (2078971460431.9797, 756759090199.6998)),
                    812254784.0),
    "pubmed": (((27869250.624100965, 31700883.199999996),
                (55738501.24820193, 63401766.39999999),
                (1248019879.5105214, 1419605175.7999997)), 705705.0),
    "reddit": (((7445112521.840377, 2112196195.1999998),
                (14890225043.680754, 4224392390.3999996),
                (333401445118.6644, 94586785866.29999)), 130238724.0),
}

#: dataset -> (choose_batching on the 0.1-scale spec, MP formats — the
#: message working-set budget binds or not; on the full-size spec with
#: an all-SpMM plan — the resident footprint budget binds or not).
BATCHES = {
    "citeseer": (4, 21),
    "cora": (10, 64),
    "livejournal": (1, 1),
    "pubmed": (3, 26),
    "reddit": (1, 1),
}


def _dims(spec):
    return [(spec.feature_length, 16), (16, spec.num_classes)]


class TestPaperParity:
    @pytest.mark.parametrize("dataset", sorted(EXPECTED))
    def test_gate_decisions_identical(self, dataset):
        spec = get_spec(dataset)
        small = scaled_spec(spec, 0.1)
        dims, small_dims = _dims(spec), _dims(small)
        working_set, footprint = BATCHES[dataset]
        assert choose_batching(64, small_dims, GraphStats.from_spec(small),
                               formats=("MP", "MP")) == working_set
        assert choose_batching(64, dims, GraphStats.from_spec(spec),
                               formats=("SpMM", "SpMM")) == footprint

    @pytest.mark.parametrize("dataset", sorted(EXPECTED))
    def test_costs_identical(self, dataset):
        stats = GraphStats.from_spec(get_spec(dataset))
        layers, setup = COSTS[dataset]
        for width, (mp, sp) in zip((4, 64, 1433), layers):
            assert mp_layer_cost(stats, width) == mp
            assert spmm_layer_cost(stats, width) == sp
        assert spmm_setup_cost(stats) == setup

    @pytest.mark.parametrize("dataset,expected", sorted(EXPECTED.items()))
    def test_paper_decisions_pinned(self, dataset, expected):
        spec = get_spec(dataset)
        formats = choose_formats(_dims(spec), GraphStats.from_spec(spec))
        assert formats == (expected, expected)


class TestResolution:
    def test_ambient_profile_sources_are_ignored(self, tmp_path,
                                                 monkeypatch):
        """A profile file named by ``GSUITE_COST_PROFILE``, or saved in
        ``GSUITE_CALIBRATION_DIR`` where a host-default lookup once
        found one, moves no decision of a default-configured pipeline —
        though its constants would flip cora's adaptive formats to
        SpMM if anything read them."""
        from repro.core.config import SuiteConfig
        from repro.core.pipeline import GNNPipeline

        def decisions():
            pipeline = GNNPipeline(SuiteConfig(
                dataset="cora", scale=0.1, framework="gsuite-adaptive",
                batch="auto"))
            record = pipeline.plan()
            return record.formats, record.batch, record.explain

        before = decisions()
        perturbed = json.dumps({"schema": 5, "profile": {
            "name": "ambient", "scatter_unit": 1e6}})
        (tmp_path / "calib").mkdir()
        (tmp_path / "calib" / "host-V100-GPGPUSim.json").write_text(perturbed)
        (tmp_path / "env.json").write_text(perturbed)
        monkeypatch.setenv("GSUITE_CALIBRATION_DIR", str(tmp_path / "calib"))
        monkeypatch.setenv("GSUITE_COST_PROFILE", str(tmp_path / "env.json"))
        assert decisions() == before
        assert before[0] == ("MP", "MP")

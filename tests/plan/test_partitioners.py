"""Partitioner contracts: skew-aware sharding stays invisible.

Three surfaces of the even-row ("rows") and edge-balanced ("edges")
partitioners:

* **Partition shape** — edge-balanced bounds cover every row exactly
  once with ~``E / K`` edges per shard.
* **Parity** — random power-law graphs x model x partitioner x shard
  count: outputs and the ambient (canonical) trace fingerprints are
  bit-for-bit identical to unsharded execution, whatever the split.
* **Boundaries** — the removed ``degree`` spelling refuses at every
  entry point, and ``gsuite plan`` reports the edge counts the
  dispatcher uses.
"""

import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from strategies import PARITY_SETTINGS, lowered, power_law_graphs, \
    shard_counts

from repro.cli import main
from repro.core.config import SuiteConfig
from repro.core.kernels import record_launches
from repro.core.pipeline import GNNPipeline
from repro.datasets import load_dataset
from repro.errors import ConfigError, PlanError
from repro.frameworks import PipelineSpec, get_backend
from repro.plan import (
    CostProfile,
    GraphStats,
    PARTITIONERS,
    ShardingPolicy,
    choose_partitioner,
    edge_balanced_ranges,
    plan_row_edges,
    shard_ranges,
)

MODELS = (("gcn", "MP"), ("gin", "SpMM"), ("sage", "MP"))


def _spec(model, compute_model, **overrides):
    params = dict(model=model, compute_model=compute_model,
                  out_features=3, seed=11)
    params.update(overrides)
    return PipelineSpec(**params)


def _run_recorded(pipeline):
    with record_launches() as recorder:
        out = pipeline.run()
    return out, [launch.fingerprint() for launch in recorder.launches]


class TestEdgeBalancedRanges:
    def test_prefix_sum_balances_hub_rows(self):
        # One hub row carrying 10 of 13 edges gets a shard to itself.
        assert edge_balanced_ranges([10, 1, 1, 1], 2) == [(0, 1), (1, 4)]
        assert edge_balanced_ranges([1, 1, 1, 10], 2) == [(0, 3), (3, 4)]

    def test_partition_covers_everything(self):
        rng = np.random.default_rng(0)
        for nodes, k in ((17, 4), (100, 7), (5, 5), (9, 1)):
            counts = rng.integers(0, 20, size=nodes)
            ranges = edge_balanced_ranges(counts, k)
            assert ranges[0][0] == 0 and ranges[-1][1] == nodes
            for (_, hi), (lo, _) in zip(ranges, ranges[1:]):
                assert hi == lo

    def test_each_shard_near_fair_share(self):
        rng = np.random.default_rng(1)
        counts = rng.zipf(2.0, size=400).clip(max=50)
        k = 8
        ranges = edge_balanced_ranges(counts, k)
        fair = counts.sum() / k
        heaviest = max(int(counts[lo:hi].sum()) for lo, hi in ranges)
        # A contiguous split can overshoot by at most one row's edges.
        assert heaviest <= fair + counts.max()

    def test_every_shard_keeps_a_row(self):
        # All edges on row 0; the remaining shards still get one row.
        assert edge_balanced_ranges([30, 0, 0, 0], 3) == \
            [(0, 1), (1, 2), (2, 4)]

    def test_degenerate_inputs_fall_back_to_rows(self):
        assert edge_balanced_ranges([0, 0, 0, 0], 2) == shard_ranges(4, 2)
        assert edge_balanced_ranges([], 3) == [(0, 0)]
        assert edge_balanced_ranges([4, 4], 7) == [(0, 1), (1, 2)]


class TestSkewGate:
    FLAT = GraphStats(num_nodes=1000, num_edges=4000, feature_width=16,
                      avg_degree=4.0, density=0.004, degree_skew=2.0)
    SKEWED = GraphStats(num_nodes=1000, num_edges=4000, feature_width=16,
                        avg_degree=4.0, density=0.004, degree_skew=40.0)

    def test_flat_graphs_keep_the_free_split(self):
        assert choose_partitioner(self.FLAT, 4) == "rows"

    def test_skewed_graphs_balance_edges(self):
        assert choose_partitioner(self.SKEWED, 4) == "edges"

    def test_single_shard_never_balances(self):
        assert choose_partitioner(self.SKEWED, 1) == "rows"

    def test_planner_never_permutes_rows(self):
        for skew in (1.0, 8.0, 100.0, 10000.0):
            stats = GraphStats(num_nodes=1000, num_edges=4000,
                               feature_width=16, avg_degree=4.0,
                               density=0.004, degree_skew=skew)
            assert choose_partitioner(stats, 8) in ("rows", "edges")

    def test_threshold_is_profile_driven(self):
        lax = CostProfile.paper().with_overrides(
            name="lax", shard_skew_threshold=1000.0)
        assert choose_partitioner(self.SKEWED, 4, profile=lax) == "rows"

    def test_bookkeeping_gate_keeps_tiny_graphs_on_rows(self):
        # Near-edgeless: the O(V) prefix-sum pass costs more than the
        # aggregation it would balance.
        stats = GraphStats(num_nodes=100_000, num_edges=10,
                           feature_width=1, avg_degree=0.0001,
                           density=1e-9, degree_skew=50.0)
        assert choose_partitioner(stats, 4) == "rows"


class TestPropertyParity:
    """Random power-law graph x model x partitioner x K: sharded
    execution is bit-for-bit invisible — outputs and canonical trace
    fingerprints both."""

    @PARITY_SETTINGS
    @given(graph=power_law_graphs(), combo=st.sampled_from(MODELS),
           partitioner=st.sampled_from(PARTITIONERS), k=shard_counts())
    def test_bitwise_output_and_trace(self, graph, combo, partitioner, k):
        model, cm = combo
        reference, ref_trace = _run_recorded(
            lowered("gsuite", _spec(model, cm), graph))
        sharded = lowered("gsuite", _spec(model, cm), graph) \
            .configure_sharding(ShardingPolicy(
                num_shards=k, partitioner=partitioner))
        out, trace = _run_recorded(sharded)
        assert out.dtype == reference.dtype
        assert np.array_equal(out, reference), (model, cm, partitioner, k)
        assert trace == ref_trace, (model, cm, partitioner, k)


class TestPartitionerBoundaries:
    @pytest.fixture(scope="class")
    def graph(self):
        return load_dataset("cora", scale=0.15, seed=1)

    def test_unknown_partitioner_refused(self):
        with pytest.raises(PlanError, match="partitioner"):
            ShardingPolicy(num_shards=2, partitioner="hashed")

    def test_shard_report_names_partitioner(self, graph):
        built = lowered("gsuite", _spec("gcn", "MP"), graph) \
            .configure_sharding(ShardingPolicy(
                num_shards=3, partitioner="edges"))
        built.run()
        for dispatch in built._executor.shard_report:
            assert dispatch.partitioner == "edges"
            assert dispatch.num_shards == 3

    @pytest.mark.parametrize("boundary", ["SuiteConfig", "--partitioner",
                                          "--config", "ShardingPolicy"])
    def test_removed_degree_spelling_refused(self, boundary, tmp_path,
                                             capsys):
        vocabulary = "'auto', 'off', 'rows' or 'edges'"
        if boundary == "SuiteConfig":
            with pytest.raises(ConfigError, match=vocabulary):
                SuiteConfig(partitioner="degree")
        elif boundary == "ShardingPolicy":
            with pytest.raises(PlanError, match=r"\('rows', 'edges'\)"):
                ShardingPolicy(num_shards=2, partitioner="degree")
        else:
            argv = ["plan", "--partitioner", "degree"]
            if boundary == "--config":
                path = tmp_path / "config.json"
                path.write_text(json.dumps({"partitioner": "degree"}))
                argv = ["plan", "--config", str(path)]
            try:
                code = main(argv)
            except SystemExit as exc:        # argparse refuses the flag
                code = exc.code
            assert code == 2
            assert vocabulary in capsys.readouterr().err

    @pytest.mark.parametrize("compute_model", ("MP", "SpMM"))
    def test_plan_command_reports_dispatched_edge_counts(self, compute_model,
                                                         capsys):
        # The operand's rows (self-loops, normalisation), not graph.dst.
        pipeline = GNNPipeline(SuiteConfig(
            model="gcn", compute_model=compute_model, dataset="cora",
            scale=0.2, shards=4, partitioner="edges"))
        pipeline.run()
        dispatch = pipeline.last_built._executor.shard_report[0]
        assert main(["plan", "--model", "gcn", "--compute-model",
                     compute_model, "--dataset", "cora", "--scale", "0.2",
                     "--shards", "4", "--partitioner", "edges"]) == 0
        assert f"per-shard edges {list(dispatch.edges_per_shard)}" \
            in capsys.readouterr().out

    def test_runtime_operand_has_no_plan_time_edge_counts(self, graph):
        # PyG-like plans split a runtime edge_index input.
        plan = get_backend("pyg").build(_spec("gcn", "MP"), graph).plan
        assert plan_row_edges(plan, graph) is None

    def test_rows_and_edges_compose_with_batching(self):
        outputs = {}
        for partitioner in ("rows", "edges"):
            pipeline = GNNPipeline(SuiteConfig(
                dataset="cora", scale=0.1, batch=2, shards=2,
                partitioner=partitioner))
            outputs[partitioner] = pipeline.run()
        assert np.array_equal(outputs["rows"], outputs["edges"])

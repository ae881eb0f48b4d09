"""Shard-parity: sharded execution is invisible except for speed.

The sharding contract (see :mod:`repro.plan.sharding`) is bit-for-bit
equality with unsharded execution for outputs *and* the ambient
recorder's launch stream — launch fingerprints included, so sharded and
unsharded runs share simulation/profile cache entries.  These tests pin
that contract for every model x backend x shard count (ragged last
shards and zero-in-edge shards included), through the process pool, and
over randomized adversarial graphs.
"""

import numpy as np
import pytest

from repro.core.kernels import record_launches
from repro.datasets import load_dataset
from repro.errors import BackendError, PlanError
from repro.frameworks import get_backend, PipelineSpec
from repro.graph import Graph
from repro.plan import (
    PlanExecutor,
    ShardingPolicy,
    build_shard_subplan,
    find_shard_groups,
    shard_ranges,
)
from strategies import lowered

#: Backend x (model, compute model) combos whose pipelines execute a
#: plain PlanExecutor and therefore support sharding.  (The PyG-like
#: backend observes every op through its tape and refuses — covered
#: separately below.)
SHARDABLE = {
    "gsuite": (("gcn", "MP"), ("gcn", "SpMM"), ("gin", "MP"),
               ("gin", "SpMM"), ("sage", "MP"), ("gat", "MP")),
    "dgl": (("gcn", "SpMM"), ("gin", "SpMM"), ("sage", "SpMM")),
    "gsuite-adaptive": (("gcn", "MP"), ("gin", "MP"), ("sage", "MP"),
                        ("gat", "MP")),
}

SHARD_COUNTS = (1, 2, 7)


@pytest.fixture(scope="module")
def graph():
    return load_dataset("cora", scale=0.15, seed=1)


def _spec(model, compute_model):
    return PipelineSpec(model=model, compute_model=compute_model, seed=5)


def _trace(recorder):
    return [launch.fingerprint() for launch in recorder.launches]


def _run_recorded(pipeline):
    with record_launches() as recorder:
        out = pipeline.run()
    return out, _trace(recorder)


def _combos():
    return [(backend, model, cm, k)
            for backend, combos in SHARDABLE.items()
            for model, cm in combos
            for k in SHARD_COUNTS]


class TestShardRanges:
    def test_even_partition(self):
        assert shard_ranges(10, 2) == [(0, 5), (5, 10)]

    def test_ragged_last_shards(self):
        ranges = shard_ranges(10, 3)
        assert ranges == [(0, 4), (4, 7), (7, 10)]
        assert ranges[0][1] - ranges[0][0] > ranges[-1][1] - ranges[-1][0]

    def test_clamps_to_node_count(self):
        assert shard_ranges(3, 7) == [(0, 1), (1, 2), (2, 3)]
        assert shard_ranges(5, 1) == [(0, 5)]
        assert shard_ranges(0, 4) == [(0, 0)]

    def test_partition_covers_everything(self):
        for nodes, k in ((17, 4), (100, 7), (5, 5)):
            ranges = shard_ranges(nodes, k)
            assert ranges[0][0] == 0 and ranges[-1][1] == nodes
            for (_, hi), (lo, _) in zip(ranges, ranges[1:]):
                assert hi == lo


class TestShardGroups:
    def test_mp_plan_groups_gather_scatter_pairs(self, graph):
        built = lowered("gsuite", _spec("gcn", "MP"), graph)
        groups = find_shard_groups(built.plan)
        assert [g.kind for g in groups] == ["mp", "mp"]  # one per layer
        for group in groups:
            assert group.gather is not None and group.scatter is not None
            assert group.positions == (group.start, group.start + 1)

    def test_spmm_plan_groups_every_spmm(self, graph):
        built = lowered("gsuite", _spec("gin", "SpMM"), graph)
        groups = find_shard_groups(built.plan)
        assert [g.kind for g in groups] == ["spmm", "spmm"]

    def test_subplan_is_valid_and_annotated(self, graph):
        built = lowered("gsuite", _spec("sage", "MP"), graph)
        group = find_shard_groups(built.plan)[0]
        subplan = build_shard_subplan(group, 3, 9, 1, 4)
        subplan.validate()
        assert subplan.flavor == "shard"
        assert subplan.meta["lo"] == 3 and subplan.meta["hi"] == 9
        assert "@shard2/4" in subplan.ops[0].tag


class TestShardParity:
    """model x backend x K in {1, 2, 7}: outputs and merged traces are
    bit-for-bit identical to the unsharded plan."""

    @pytest.mark.parametrize("backend,model,cm,k", _combos())
    def test_bitwise_output_and_trace(self, graph, backend, model, cm, k):
        spec = _spec(model, cm)
        reference, ref_trace = _run_recorded(
            lowered(backend, spec, graph))
        sharded_pipeline = lowered(backend, spec, graph) \
            .configure_sharding(ShardingPolicy(num_shards=k))
        sharded, shard_trace = _run_recorded(sharded_pipeline)
        assert sharded.dtype == reference.dtype
        assert np.array_equal(sharded, reference)     # bit-for-bit
        assert shard_trace == ref_trace               # fingerprints equal

    def test_pooled_dispatch_is_identical(self, graph):
        """jobs > 1 routes shards through real worker processes."""
        spec = _spec("gcn", "MP")
        reference, ref_trace = _run_recorded(
            lowered("gsuite", spec, graph))
        pooled = lowered("gsuite", spec, graph).configure_sharding(
            ShardingPolicy(num_shards=3, jobs=2))
        out, trace = _run_recorded(pooled)
        assert np.array_equal(out, reference)
        assert trace == ref_trace

    def test_shard_trace_captures_shards_and_merges(self, graph):
        built = lowered("gsuite", _spec("gcn", "MP"), graph) \
            .configure_sharding(ShardingPolicy(num_shards=4))
        with record_launches():   # capture follows the ambient recorder
            built.run()
        executor = built._executor
        tags = [launch.tag for launch in executor.shard_trace]
        assert any("@shard1/4" in tag for tag in tags)
        assert any(tag.endswith("@merge") for tag in tags)
        assert len(executor.shard_report) == 2        # one per MP layer
        for dispatch in executor.shard_report:
            assert dispatch.num_shards == 4
            assert sum(dispatch.edges_per_shard) > 0

    def test_zero_in_edge_shards(self):
        """Shards whose destination range receives no edges at all."""
        rng = np.random.default_rng(7)
        # 20 nodes; every edge lands in [0, 5) so shards of the upper
        # ranges carry zero in-edges; nodes 10+ are fully isolated.
        src = rng.integers(0, 20, size=60)
        dst = rng.integers(0, 5, size=60)
        graph = Graph(np.vstack([src, dst]), num_nodes=20,
                      features=rng.standard_normal((20, 6)).astype(np.float32),
                      name="zero-shards")
        for model, cm in (("gcn", "MP"), ("gin", "SpMM")):
            spec = PipelineSpec(model=model, compute_model=cm,
                                out_features=3, seed=2)
            reference, ref_trace = _run_recorded(
                lowered("gsuite", spec, graph))
            sharded, trace = _run_recorded(
                lowered("gsuite", spec, graph)
                .configure_sharding(ShardingPolicy(num_shards=7)))
            assert np.array_equal(sharded, reference)
            assert trace == ref_trace

    def test_edgeless_graph(self):
        """A graph with no edges at all shard-executes identically."""
        rng = np.random.default_rng(3)
        graph = Graph(np.zeros((2, 0), dtype=np.int64), num_nodes=9,
                      features=rng.standard_normal((9, 4)).astype(np.float32),
                      name="edgeless")
        spec = PipelineSpec(model="gin", compute_model="MP",
                            out_features=2, seed=0)
        reference, ref_trace = _run_recorded(
            lowered("gsuite", spec, graph))
        sharded, trace = _run_recorded(
            lowered("gsuite", spec, graph)
            .configure_sharding(ShardingPolicy(num_shards=2)))
        assert np.array_equal(sharded, reference)
        assert trace == ref_trace

    def test_pyg_refuses_sharding(self, graph):
        built = get_backend("pyg").build(_spec("gcn", "MP"), graph)
        with pytest.raises(BackendError):
            built.configure_sharding(ShardingPolicy(num_shards=2))

    def test_observer_and_sharding_are_exclusive(self):
        with pytest.raises(PlanError):
            PlanExecutor(on_op=lambda op, result: None,
                         sharding=ShardingPolicy(num_shards=2))


class TestCrossDatasetParity:
    """All four models on every benchmark dataset (scaled): sharded
    execution through the adaptive backend — whatever mix of MP and
    SpMM layers the planner picks — stays bit-for-bit identical."""

    SCALES = {"cora": 0.15, "citeseer": 0.15, "pubmed": 0.05,
              "reddit": 0.002, "livejournal": 0.0005}

    @pytest.mark.parametrize("dataset", sorted(SCALES))
    def test_every_model_on_dataset(self, dataset):
        graph = load_dataset(dataset, scale=self.SCALES[dataset], seed=0)
        for model in ("gcn", "gin", "sage", "gat"):
            spec = PipelineSpec(model=model, out_features=4, seed=3)
            reference, ref_trace = _run_recorded(
                lowered("gsuite-adaptive", spec, graph))
            sharded, trace = _run_recorded(
                lowered("gsuite-adaptive", spec, graph)
                .configure_sharding(ShardingPolicy(num_shards=3)))
            assert np.array_equal(sharded, reference), \
                f"{model} on {dataset}"
            assert trace == ref_trace, f"{model} on {dataset}"


class TestRandomizedParity:
    """Property-style parity over seeded adversarial graphs: duplicate
    edges, isolated nodes, empty rows, ragged shard counts.  The
    harness is fully deterministic (one seeded generator, no
    wall-clock)."""

    MODELS = (("gcn", "MP"), ("gcn", "SpMM"), ("gin", "MP"),
              ("gin", "SpMM"), ("sage", "MP"), ("gat", "MP"))

    def _random_graph(self, rng, case):
        num_nodes = int(rng.integers(4, 40))
        # Leave a tail of isolated nodes; allow empty edge sets.
        reachable = max(1, int(rng.integers(1, num_nodes + 1)))
        num_edges = int(rng.integers(0, 4 * num_nodes))
        src = rng.integers(0, reachable, size=num_edges)
        dst = rng.integers(0, reachable, size=num_edges)
        if num_edges > 2:  # force duplicate edges
            src[1], dst[1] = src[0], dst[0]
        features = rng.standard_normal(
            (num_nodes, int(rng.integers(1, 12)))).astype(np.float32)
        return Graph(np.vstack([src, dst]), num_nodes=num_nodes,
                     features=features, name=f"random-{case}")

    def test_random_graphs_shard_identically(self):
        rng = np.random.default_rng(20260730)
        for case in range(12):
            graph = self._random_graph(rng, case)
            model, cm = self.MODELS[case % len(self.MODELS)]
            spec = PipelineSpec(model=model, compute_model=cm,
                                out_features=int(rng.integers(2, 6)),
                                hidden=int(rng.integers(2, 9)),
                                seed=int(rng.integers(0, 100)))
            num_shards = int(rng.integers(2, graph.num_nodes + 3))
            reference, ref_trace = _run_recorded(
                lowered("gsuite", spec, graph))
            sharded, trace = _run_recorded(
                lowered("gsuite", spec, graph)
                .configure_sharding(ShardingPolicy(num_shards=num_shards)))
            assert np.array_equal(sharded, reference), \
                f"case {case}: {model}/{cm} K={num_shards}"
            assert trace == ref_trace, \
                f"case {case}: {model}/{cm} K={num_shards}"

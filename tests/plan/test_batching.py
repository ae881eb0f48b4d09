"""Batched multi-graph plans: one plan, many workloads, bitwise parity.

The batching contract (see :mod:`repro.graph.batch` and
:class:`repro.plan.ir.BatchSegmentMap`): packing a set of graphs into
one block-diagonal workload and executing the single batched plan
yields per-member outputs **bit-for-bit identical** to running every
member's unbatched plan alone — across models, backends and fusion —
and a single-graph batch is additionally trace-fingerprint
identical to the plain unbatched run.  A batched build stamps its
``BatchSegmentMap`` onto the plan, and the planner
(``choose_batching``) packs citation-scale sweeps while declining
Reddit-scale members whose packed message matrices outgrow the
working-set budget.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.config import SuiteConfig
from repro.core.kernels import record_launches
from repro.core.pipeline import AUTO_BATCH_SWEEP, GNNPipeline
from repro.datasets import load_dataset
from repro.errors import ConfigError, GraphFormatError, PlanError
from repro.frameworks import PipelineSpec, get_backend
from repro.graph import BatchedGraph, Graph
from repro.plan import (
    BatchSegmentMap,
    GraphStats,
    PlanExecutor,
    batch_member_bytes,
    choose_batching,
)
from strategies import (
    PARITY_SETTINGS,
    batch_member_lists,
    copy_graph,
    executable_combos,
)


@pytest.fixture(scope="module")
def members():
    return [load_dataset("cora", scale=0.15, seed=s) for s in (1, 2, 3)]


@pytest.fixture(scope="module")
def batched(members):
    return BatchedGraph(members)


def _spec(model, compute_model):
    return PipelineSpec(model=model, compute_model=compute_model, seed=5)


def _trace(recorder):
    return [launch.fingerprint() for launch in recorder.launches]


class TestBatchedGraph:
    def test_packing_geometry(self, members, batched):
        assert batched.num_graphs == 3
        assert batched.num_nodes == sum(g.num_nodes for g in members)
        assert batched.num_edges == sum(g.num_edges for g in members)
        assert list(batched.node_offsets) == [
            0, members[0].num_nodes,
            members[0].num_nodes + members[1].num_nodes,
            batched.num_nodes]
        # Member blocks are disjoint: every edge stays inside its block.
        for (lo, hi), (elo, ehi) in zip(
                batched.node_segments(),
                zip(batched.edge_offsets[:-1], batched.edge_offsets[1:])):
            block = batched.edge_index[:, elo:ehi]
            assert block.size == 0 or (block.min() >= lo and block.max() < hi)

    def test_features_stack_in_member_order(self, members, batched):
        for block, member in zip(batched.unpack(batched.features), members):
            assert np.array_equal(block, member.features)

    def test_unpack_rejects_wrong_row_count(self, batched):
        with pytest.raises(GraphFormatError):
            batched.unpack(np.zeros((batched.num_nodes + 1, 2)))

    def test_ragged_feature_widths_rejected(self):
        a = Graph(np.array([[0], [1]]), features=np.zeros((2, 4),
                                                          dtype=np.float32))
        b = Graph(np.array([[0], [1]]), features=np.zeros((2, 5),
                                                          dtype=np.float32))
        with pytest.raises(GraphFormatError, match="ragged feature widths"):
            BatchedGraph([a, b])

    def test_mixed_feature_presence_rejected(self):
        a = Graph(np.array([[0], [1]]), features=np.zeros((2, 4),
                                                          dtype=np.float32))
        b = Graph(np.array([[0], [1]]), num_nodes=2)
        with pytest.raises(GraphFormatError, match="with and without"):
            BatchedGraph([a, b])

    def test_empty_batch_rejected(self):
        with pytest.raises(GraphFormatError, match="at least one"):
            BatchedGraph([])

    def test_edgeless_member_packs(self):
        a = Graph(np.array([[0, 1], [1, 0]]),
                  features=np.ones((2, 3), dtype=np.float32), name="a")
        b = Graph(np.zeros((2, 0), dtype=np.int64),
                  features=np.ones((4, 3), dtype=np.float32),
                  num_nodes=4, name="empty")
        packed = BatchedGraph([a, b])
        assert packed.num_nodes == 6 and packed.num_edges == 2
        assert packed.member_names() == ("a", "empty")


class TestBatchedParity:
    """Property sweep: random power-law member lists, every legal
    backend x model x compute-model combo, fused or not — the packed
    plan's unpacked blocks are bit-for-bit the solo runs.

    One documented carve-out: the adaptive backend prices its
    per-layer formats from the *whole workload's* statistics, so a
    heterogeneous batch can legally pick a different MP/SpMM schedule
    than a member alone would — there the contract weakens to
    numerical equivalence (and bitwise exactly when the format
    decisions agree)."""

    @PARITY_SETTINGS
    @given(members=batch_member_lists(), combo=executable_combos(),
           fuse=st.booleans())
    def test_bitwise_member_outputs(self, members, combo, fuse):
        backend, model, cm = combo
        spec = _spec(model, cm)
        batched = BatchedGraph(members)
        packed = get_backend(backend).build(spec, batched, fuse=fuse).run()
        for block, member in zip(batched.unpack(packed), members):
            reference = get_backend(backend).build(spec, member,
                                                   fuse=fuse).run()
            if backend == "gsuite-adaptive":
                from repro.frameworks.adaptive import plan_formats
                if plan_formats(spec, batched) != plan_formats(spec, member):
                    assert np.allclose(block, reference, atol=1e-5), \
                        (backend, model, cm)
                    continue
            assert np.array_equal(block, reference), (backend, model, cm)

    def test_batched_sgemm_launches_are_segment_local(self, batched):
        built = get_backend("gsuite").build(_spec("gcn", "MP"), batched)
        with record_launches() as recorder:
            built.run()
        segmented = [l for l in recorder.launches
                     if l.kernel == "sgemm" and "@graph" in l.tag]
        # Two layers x three members, each launch sized to its member.
        assert len(segmented) == 2 * batched.num_graphs
        assert {l.tag.partition("@")[2] for l in segmented} == {
            f"graph{i + 1}/3" for i in range(3)}


class TestSingleGraphBatch:
    def test_outputs_and_trace_fingerprints_match_unbatched(self, members):
        spec = _spec("gin", "MP")
        member = members[0]
        solo = BatchedGraph([member])

        def run(graph):
            built = get_backend("gsuite").build(spec, graph)
            with record_launches() as recorder:
                out = built.run()
            return out, _trace(recorder)

        out_plain, trace_plain = run(member)
        out_solo, trace_solo = run(solo)
        assert np.array_equal(out_plain, out_solo)
        assert trace_plain == trace_solo


class TestEdgeCases:
    def test_edgeless_member_in_batch(self):
        rng = np.random.default_rng(0)
        a = Graph(np.array([[0, 1, 2], [1, 2, 0]]),
                  features=rng.standard_normal((3, 6)).astype(np.float32),
                  name="a")
        empty = Graph(np.zeros((2, 0), dtype=np.int64),
                      features=rng.standard_normal((4, 6)).astype(np.float32),
                      num_nodes=4, name="empty")
        packed = BatchedGraph([a, empty, copy_graph(a)])
        spec = _spec("gcn", "MP")
        blocks = packed.unpack(get_backend("gsuite").build(spec,
                                                           packed).run())
        for block, member in zip(blocks, packed.members):
            reference = get_backend("gsuite").build(spec, member).run()
            assert np.array_equal(block, reference)

    def test_batched_plan_rejects_mismatched_graph(self, members, batched):
        spec = _spec("gcn", "MP")
        built = get_backend("gsuite").build(spec, batched)
        plain = get_backend("gsuite").build(spec, members[0]).plan
        # The build stamps the packing onto the plan, so a batched plan
        # never shares a fingerprint with the plain plan of its ops.
        assert plain.batch is None
        assert built.plan.batch == BatchSegmentMap.from_graph(batched)
        assert plain.fingerprint() != built.plan.fingerprint()
        x = members[0].features
        with pytest.raises(PlanError, match="packs"):
            PlanExecutor().run(built.plan, members[0], {"X": x})

    def test_batched_plan_rejects_repacked_boundaries(self):
        # Same node total, different member boundaries: segmenting the
        # dense transforms at the plan's offsets would silently break
        # member parity, so binding must refuse.
        rng = np.random.default_rng(7)

        def member(nodes, name):
            edge_index = np.vstack([np.arange(nodes - 1),
                                    np.arange(1, nodes)]).astype(np.int64)
            features = rng.standard_normal((nodes, 6)).astype(np.float32)
            return Graph(edge_index, features=features, name=name)

        small, big = member(5, "small"), member(9, "big")
        packed = BatchedGraph([small, big])
        repacked = BatchedGraph([big, small])
        assert repacked.num_nodes == packed.num_nodes
        assert tuple(repacked.node_offsets) != tuple(packed.node_offsets)
        built = get_backend("gsuite").build(_spec("gcn", "MP"), packed)
        with pytest.raises(PlanError, match="member boundaries"):
            PlanExecutor().run(built.plan, repacked,
                               {"X": repacked.features})
        # A plain graph of coincidentally matching size must refuse
        # too (graph-derived segmentation would silently run packed).
        flat = Graph(packed.edge_index, features=packed.features,
                     num_nodes=packed.num_nodes, name="flat")
        with pytest.raises(PlanError, match="matching BatchedGraph"):
            PlanExecutor().run(built.plan, flat, {"X": flat.features})
        # ...and the converse: a packed workload refuses an unstamped
        # plan (it would run dense transforms packed, breaking parity).
        unstamped = built.plan.with_batch(None)
        with pytest.raises(PlanError, match="batch-stamped"):
            PlanExecutor().run(unstamped, packed, {"X": packed.features})

    def test_segment_map_validates_offsets(self):
        with pytest.raises(PlanError):
            BatchSegmentMap(node_offsets=(5, 10), edge_offsets=(0, 4))
        with pytest.raises(PlanError):
            BatchSegmentMap(node_offsets=(0, 10), edge_offsets=(0, 4, 8))
        with pytest.raises(PlanError, match="non-decreasing"):
            BatchSegmentMap(node_offsets=(0, 5, 3), edge_offsets=(0, 2, 4))
        with pytest.raises(PlanError, match="non-decreasing"):
            BatchSegmentMap(node_offsets=(0, 3, 5), edge_offsets=(4, 2, 1))


class TestChooseBatching:
    def _stats(self, nodes, edges, width):
        return GraphStats(num_nodes=nodes, num_edges=edges,
                          feature_width=width,
                          avg_degree=edges / max(1, nodes),
                          density=0.001, degree_skew=10.0)

    def test_citation_scale_packs_the_whole_sweep(self):
        # GCN aggregates transform-first (output width), so a cora
        # member's message matrix is kilobytes — the sweep packs whole.
        from repro.core.models import get_model_class
        stats = self._stats(2708, 10556, 1433)
        dims = [(1433, 16), (16, 7)]
        hook = get_model_class("gcn").aggregation_width
        assert choose_batching(8, dims, stats, width_hook=hook) == 8

    def test_reddit_scale_declines(self):
        stats = self._stats(232_965, 114_615_892, 602)
        dims = [(602, 16), (16, 41)]
        assert choose_batching(8, dims, stats) == 1

    def test_budget_caps_the_batch_mid_sweep(self):
        # ~14 MB per member: a 64 MB budget fits 4, not 8.
        stats = self._stats(3327, 947, 3703)
        dims = [(3703, 16), (16, 6)]
        chosen = choose_batching(8, dims, stats)
        assert 1 < chosen < 8
        assert chosen * batch_member_bytes(dims, stats) <= 64 * 1024 * 1024

    def test_all_spmm_plans_batch_by_footprint(self):
        # SpMM layers exert no message-matrix pressure, but member
        # state (features + structure) still multiplies by B: small
        # all-SpMM members pack, Table-IV-size ones stay per-graph.
        from repro.plan import batch_member_footprint
        small = self._stats(3327, 4732, 3703)
        dims = [(3703, 16), (16, 6)]
        assert batch_member_bytes(dims, small,
                                  formats=["SpMM", "SpMM"]) == 0.0
        assert choose_batching(8, dims, small,
                               formats=["SpMM", "SpMM"]) == 8
        reddit = self._stats(232_965, 114_615_892, 602)
        assert batch_member_footprint(reddit) > 1024 ** 3
        assert choose_batching(8, [(602, 16), (16, 41)], reddit,
                               formats=["SpMM", "SpMM"]) == 1

    def test_single_graph_and_cap(self):
        stats = self._stats(100, 200, 8)
        dims = [(8, 4)]
        assert choose_batching(1, dims, stats) == 1
        assert choose_batching(500, dims, stats) == 64  # _MAX_AUTO_BATCH
        assert choose_batching(500, dims, stats, max_batch=3) == 3


class TestPipelineAndConfig:
    def test_config_validates_batch(self):
        assert SuiteConfig(batch=0).batch == 0
        with pytest.raises(ConfigError):
            SuiteConfig(batch=-1)

    def test_config_accepts_cli_spellings(self, tmp_path):
        # Config files may use the vocabulary --batch teaches.
        assert SuiteConfig(batch="auto").batch == 0
        assert SuiteConfig(batch="off").batch == 1
        assert SuiteConfig(batch="4").batch == 4
        with pytest.raises(ConfigError, match="batch"):
            SuiteConfig(batch="many")
        # JSON numbers may arrive as floats; integral ones coerce,
        # non-integral ones refuse with ConfigError (not TypeError).
        assert SuiteConfig(batch=4.0).batch == 4
        with pytest.raises(ConfigError, match="batch"):
            SuiteConfig(batch=4.5)
        # JSON booleans refuse: false would silently mean 0 = auto.
        with pytest.raises(ConfigError, match="batch"):
            SuiteConfig(batch=False)
        with pytest.raises(ConfigError, match="batch"):
            SuiteConfig(batch=True)
        path = tmp_path / "cfg.json"
        path.write_text('{"batch": "auto"}')
        assert SuiteConfig.from_file(path).batch == 0

    def test_forced_batch_packs_seed_variants(self):
        pipeline = GNNPipeline(SuiteConfig(dataset="cora", model="gcn",
                                           scale=0.15, batch=3, seed=2))
        assert pipeline.batch_decision() == (3, "forced")
        graph = pipeline.graph
        assert isinstance(graph, BatchedGraph) and graph.num_graphs == 3
        # Members are the seed sweep, so they genuinely differ.
        assert not np.array_equal(graph.members[0].edge_index,
                                  graph.members[1].edge_index)
        outputs = pipeline.run_batch()
        assert len(outputs) == 3
        for out, member in zip(outputs, graph.members):
            solo = GNNPipeline(SuiteConfig(dataset="cora", model="gcn",
                                           scale=0.15, seed=2),
                               graph=member)
            assert np.array_equal(out, solo.run())

    def test_auto_packs_citation_and_declines_reddit(self):
        cora = GNNPipeline(SuiteConfig(dataset="cora", model="gcn",
                                       scale=0.15, batch=0))
        assert cora.batch_decision() == (AUTO_BATCH_SWEEP, "planner")
        reddit = GNNPipeline(SuiteConfig(dataset="reddit", model="sage",
                                         scale=0.05, batch=0))
        assert reddit.batch_decision() == (1, "planner")

    def test_auto_prices_adaptive_with_planned_formats(self):
        # The adaptive backend flips SAGE/Reddit to all-SpMM layers,
        # which exert no message-matrix pressure — the auto estimate
        # must price those formats, not the config's MP default.
        adaptive = GNNPipeline(SuiteConfig(dataset="reddit", model="sage",
                                           scale=0.05, batch=0,
                                           framework="gsuite-adaptive"))
        assert adaptive.batch_decision() == (AUTO_BATCH_SWEEP, "planner")
        # ...but the resident-footprint budget still refuses to pack
        # full Table-IV-size members, all-SpMM or not.
        full = GNNPipeline(SuiteConfig(dataset="reddit", model="sage",
                                       batch=0,
                                       framework="gsuite-adaptive"))
        assert full.batch_decision() == (1, "planner")

    def test_explicit_graph_wins_over_config(self, members, batched):
        pipeline = GNNPipeline(SuiteConfig(dataset="cora", model="gcn",
                                           batch=5), graph=members[0])
        assert pipeline.batch_decision() == (1, "off")
        assert pipeline.run_batch()[0].shape[0] == members[0].num_nodes
        packed = GNNPipeline(SuiteConfig(dataset="cora", model="gcn"),
                             graph=batched)
        assert packed.batch_decision() == (3, "graph")
        assert len(packed.run_batch()) == 3


class TestCli:
    def test_parse_batch_values(self):
        import argparse
        from repro.cli import _knob_type
        parse = _knob_type("batch")
        assert parse("auto") == 0
        assert parse("off") == 1
        assert parse("4") == 4
        with pytest.raises(argparse.ArgumentTypeError):
            parse("many")

    def test_plan_reports_batching(self, capsys):
        from repro.cli import main
        code = main(["plan", "--model", "gcn", "--dataset", "cora",
                     "--scale", "0.15", "--batch", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "batching: 2 graphs (cora+cora)" in out
        assert "(forced)" in out

    def test_config_file_batch_survives_unset_flags(self, tmp_path,
                                                    capsys):
        # An unset --batch must not clobber the config file's value
        # with the built-in default; an explicit flag still wins.
        from repro.cli import main
        path = tmp_path / "sweep.json"
        SuiteConfig(dataset="cora", scale=0.15, batch=2).save(path)
        assert main(["run", "--config", str(path)]) == 0
        assert capsys.readouterr().out.count("cora: output shape") == 2
        assert main(["run", "--config", str(path), "--batch", "off"]) == 0
        assert "output shape: " in capsys.readouterr().out

    def test_run_reports_members(self, capsys):
        from repro.cli import main
        code = main(["run", "--model", "gcn", "--dataset", "cora",
                     "--scale", "0.15", "--batch", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("cora: output shape") == 2

"""Fusion parity: fused plans are invisible except for speed.

The fusion contract (see :mod:`repro.plan.fusion`) is bit-for-bit
output equality with the unfused plan, plus a *documented trace
mapping*: fused launches declare the legacy launches they replace, so
expanding ``replaces`` reproduces the unfused ``(kernel, tag)``
sequence exactly.  These tests pin that contract for every model x
backend x {fused, unfused}, the legality
edge cases (a value with two consumers must block fusion), the
streaming kernel's destination blocking, the pipeline's default
(every legal site fuses, at every size), and the lowering seam: a
backend build hands back the fused plan unless ``fuse=False``, lowers
and fuses once per build, and touches no cache.
"""

import numpy as np
import pytest
from hypothesis import given

from repro.core.kernels import fused_gather_scatter, index_select, \
    record_launches, scatter
from repro.datasets import load_dataset
from repro.errors import ConfigError
from repro.frameworks import get_backend, PipelineSpec
from repro.plan import (
    FusedElementwise,
    FusedGatherScatter,
    PlanBuilder,
    fuse_plan,
    fusion_summary,
    legacy_trace,
)
from repro.plan.planner import GraphStats
from strategies import (
    FUSABLE_COMBOS,
    PARITY_SETTINGS,
    fusable_combos,
    power_law_graphs,
)

@pytest.fixture(scope="module")
def graph():
    return load_dataset("cora", scale=0.15, seed=1)


def _spec(model, compute_model):
    return PipelineSpec(model=model, compute_model=compute_model, seed=5)


def _build(backend, spec, graph, fuse=True):
    return get_backend(backend).build(spec, graph, fuse=fuse)


def _run_recorded(pipeline):
    with record_launches() as recorder:
        out = pipeline.run()
    return out, recorder.launches


class TestFusionPass:
    """Structural properties of the plan rewrite."""

    def test_gather_scatter_pairs_fuse(self, graph):
        built = _build("gsuite", _spec("gcn", "MP"), graph, fuse=False)
        fused = fuse_plan(built.plan)
        kinds = [op.opcode for op in fused.ops]
        assert kinds.count("fused_gather_scatter") == 2  # one per layer
        assert "gather" not in kinds and "scatter" not in kinds
        fused.validate()
        assert fused.meta["fusion"]["gather_scatter"] == 2

    def test_sgemm_epilogue_folds_activation(self, graph):
        built = _build("gsuite", _spec("gin", "SpMM"), graph, fuse=False)
        fused = fuse_plan(built.plan)
        epilogues = [op for op in fused.ops
                     if op.opcode == "sgemm" and op.activation]
        # GIN: the MLP's inner relu per layer + the inter-layer relu.
        assert len(epilogues) == 3
        assert {op.activation for op in epilogues} == {"relu"}
        assert fused.meta["fusion"]["sgemm_epilogue"] == 3

    def test_elementwise_chain_collapses(self, graph):
        built = _build("gsuite", _spec("sage", "MP"), graph, fuse=False)
        fused = fuse_plan(built.plan)
        chains = [op for op in fused.ops
                  if isinstance(op, FusedElementwise)]
        assert len(chains) == 1          # layer-0 add + inter-layer relu
        assert chains[0].function == "add+relu"

    def test_fused_plan_op_count_shrinks(self, graph):
        for backend, model, cm in FUSABLE_COMBOS:
            built = _build(backend, _spec(model, cm), graph, fuse=False)
            fused = fuse_plan(built.plan)
            assert len(fused.ops) < len(built.plan.ops), (backend, model)

    def test_bias_fold_requires_constant_vec(self):
        """An add_bias whose operand is a runtime value must not fold."""
        builder = PlanBuilder("t", "t")
        x = builder.input("X", "dense")
        w = builder.constant(np.eye(3, dtype=np.float32), "W")
        runtime_bias = builder.input("B", "vec")     # not a constant
        h = builder.sgemm(x, w, tag="t")
        out = builder.elementwise("add_bias", h, runtime_bias)
        plan = builder.build(out)
        fused = fuse_plan(plan)
        sgemms = [op for op in fused.ops if op.opcode == "sgemm"]
        assert sgemms[0].bias is None               # nothing folded


class TestSpMMEpilogue:
    """Trailing bias add / activation fold into the SpMM launch itself,
    through the same matcher as the SGEMM epilogue."""

    @staticmethod
    def _tiny_graph():
        from repro.graph import Graph
        edge_index = np.array([[0, 1, 2, 2, 3], [1, 2, 0, 1, 0]],
                              dtype=np.int64)
        rng = np.random.default_rng(3)
        features = rng.standard_normal((4, 5)).astype(np.float32)
        return Graph(edge_index, features=features, name="tiny")

    @staticmethod
    def _plan(width):
        b = PlanBuilder("t", "t")
        x = b.input("X", fmt="dense")
        a, = b.normalize("mean_adjacency", outputs=(("A", "csr"),))
        h = b.spmm(a, x, tag="agg")
        bias = b.constant(np.linspace(-0.5, 0.5, width,
                                      dtype=np.float32), "B")
        hb = b.elementwise("add_bias", h, bias)
        return b.build(b.activation(hb, "relu"))

    def test_epilogue_folds_into_spmm(self):
        plan = self._plan(5)
        fused = fuse_plan(plan)
        spmms = [op for op in fused.ops if op.opcode == "spmm"]
        assert len(spmms) == 1
        assert spmms[0].bias is not None
        assert spmms[0].activation == "relu"
        assert fused.meta["fusion"]["spmm_epilogue"] == 1
        kinds = [op.opcode for op in fused.ops]
        assert "elementwise" not in kinds and "activation" not in kinds

    def test_bitwise_output_and_mapped_trace(self):
        from repro.plan import PlanExecutor
        graph = self._tiny_graph()
        plan = self._plan(graph.num_features)
        fused = fuse_plan(plan)
        with record_launches() as ref_rec:
            reference = PlanExecutor().run(plan, graph,
                                           {"X": graph.features})
        with record_launches() as rec:
            out = PlanExecutor().run(fused, graph, {"X": graph.features})
        assert out.dtype == reference.dtype
        assert np.array_equal(out, reference)
        assert legacy_trace(rec.launches) == \
            [(l.kernel, l.tag) for l in ref_rec.launches]

    def test_runtime_bias_blocks_fold(self):
        b = PlanBuilder("t", "t")
        x = b.input("X", fmt="dense")
        a, = b.normalize("mean_adjacency", outputs=(("A", "csr"),))
        h = b.spmm(a, x, tag="agg")
        runtime_bias = b.input("B", fmt="vec")       # not a constant
        plan = b.build(b.elementwise("add_bias", h, runtime_bias))
        fused = fuse_plan(plan)
        spmms = [op for op in fused.ops if op.opcode == "spmm"]
        assert spmms[0].bias is None                 # nothing folded


class TestReuseBlocksFusion:
    """The liveness analysis: a value with two consumers stays put."""

    def _mp_plan(self, reused):
        """Gather -> ScatterReduce where the messages are optionally
        also consumed by a second op (an elementwise add)."""
        builder = PlanBuilder("t", "t")
        x = builder.input("X", "dense")
        src = builder.input("src", "edge")
        dst = builder.input("dst", "edge")
        messages = builder.gather(x, src, tag="t")
        agg = builder.scatter_reduce(messages, dst, tag="t")
        if reused:
            # Second consumer of the gathered messages.
            out = builder.elementwise("add", messages, messages)
            out = builder.elementwise("add", agg, out)
        else:
            out = agg
        return builder.build(out)

    def test_single_consumer_fuses(self):
        fused = fuse_plan(self._mp_plan(reused=False))
        assert any(isinstance(op, FusedGatherScatter) for op in fused.ops)

    def test_reused_messages_block_gather_scatter(self):
        fused = fuse_plan(self._mp_plan(reused=True))
        assert not any(isinstance(op, FusedGatherScatter)
                       for op in fused.ops)
        kinds = [op.opcode for op in fused.ops]
        assert "gather" in kinds and "scatter" in kinds

    def test_reused_elementwise_blocks_chain(self):
        """An elementwise value read by two consumers stays a plan value."""
        builder = PlanBuilder("t", "t")
        a = builder.input("A", "dense")
        b = builder.input("B", "dense")
        summed = builder.elementwise("add", a, b)
        act = builder.activation(summed, "relu")
        # Second consumer of `summed`: it must survive as an SSA value.
        out = builder.elementwise("add", act, summed)
        fused = fuse_plan(builder.build(out))
        # The producing add must stay a standalone op (its output is
        # read twice); a chain may legally start *after* it, but can
        # never absorb it.
        standalone = [op for op in fused.ops
                      if op.opcode == "elementwise"
                      and op.out.vid == summed.vid]
        assert len(standalone) == 1
        for op in fused.ops:
            if isinstance(op, FusedElementwise):
                assert summed.vid not in {s.out.vid for s in op.stages}

    def test_reused_sgemm_output_blocks_epilogue(self):
        builder = PlanBuilder("t", "t")
        x = builder.input("X", "dense")
        w = builder.constant(np.eye(2, dtype=np.float32), "W")
        h = builder.sgemm(x, w, tag="t")
        act = builder.activation(h, "relu")
        out = builder.elementwise("add", act, h)     # h read twice
        fused = fuse_plan(builder.build(out))
        sgemms = [op for op in fused.ops if op.opcode == "sgemm"]
        assert sgemms[0].activation == ""


class TestFusedParity:
    """Drawn (backend, model, compute model) x random power-law graph:
    outputs bit-for-bit, traces equivalent under the replaces
    mapping."""

    @PARITY_SETTINGS
    @given(graph=power_law_graphs(), combo=fusable_combos())
    def test_bitwise_output_and_mapped_trace(self, graph, combo):
        backend, model, cm = combo
        spec = _spec(model, cm)
        reference, ref_launches = _run_recorded(
            _build(backend, spec, graph, fuse=False))
        fused, fused_launches = _run_recorded(_build(backend, spec, graph))
        assert fused.dtype == reference.dtype
        assert np.array_equal(fused, reference)      # bit-for-bit
        assert legacy_trace(fused_launches) == \
            [(l.kernel, l.tag) for l in ref_launches]

    def test_pyg_refuses_fusion(self, graph):
        """The tape observes the per-op stream, so a PyG-like build is
        unfused whatever ``fuse`` says — and says nothing about it."""
        asked, declined = (_build("pyg", _spec("gcn", "MP"), graph, fuse=fuse)
                           for fuse in (True, False))
        assert fusion_summary(asked.plan) == {}
        assert asked.plan.fingerprint() == declined.plan.fingerprint()
        out, launches = _run_recorded(asked)
        assert np.array_equal(out, declined.run())
        assert [l.kernel for l in launches if l.kernel != "sgemm"] == \
            ["indexSelect", "scatter"] * 2
        assert [node["op"] for node in asked._tape.nodes
                if node["op"] != "sgemm"] == \
            ["index_select", "message", "scatter"] * 2


class TestStreamingKernel:
    """The fused kernel's destination blocking is exact and bounded."""

    def _workload(self, edges=4000, nodes=300, width=9, seed=3):
        rng = np.random.default_rng(seed)
        source = rng.standard_normal((nodes, width)).astype(np.float32)
        src = rng.integers(0, nodes, size=edges)
        dst = rng.integers(0, nodes, size=edges)
        scale = rng.standard_normal(edges).astype(np.float32)
        return source, src, dst, scale

    @pytest.mark.parametrize("reduce", ["sum", "mean", "max", "min"])
    def test_multi_block_matches_unfused(self, reduce):
        source, src, dst, scale = self._workload()
        unfused = scatter(index_select(source, src) * scale[:, None], dst,
                          dim_size=source.shape[0], reduce=reduce)
        # Tiny block budget: forces many destination blocks.
        fused = fused_gather_scatter(source, src, dst, source.shape[0],
                                     scale=scale, reduce=reduce,
                                     block_bytes=2048)
        assert np.array_equal(fused, unfused)

    def test_single_block_matches_unfused(self):
        source, src, dst, _ = self._workload(edges=50, nodes=20, width=3)
        unfused = scatter(index_select(source, src), dst,
                          dim_size=source.shape[0])
        fused = fused_gather_scatter(source, src, dst, source.shape[0])
        assert np.array_equal(fused, unfused)

    def test_launch_declares_replaced_kernels(self):
        source, src, dst, _ = self._workload(edges=64, nodes=16, width=4)
        with record_launches() as recorder:
            fused_gather_scatter(source, src, dst, source.shape[0],
                                 tag="l0", gather_tag="g0")
        launch, = recorder.launches
        assert launch.kernel == "fusedGatherScatter"
        assert launch.replaces == ("indexSelect:g0", "scatter:l0")
        assert launch.atomic
        assert launch.mix.total > 0

    def test_validation_errors(self):
        source, src, dst, _ = self._workload(edges=10, nodes=8, width=2)
        with pytest.raises(Exception):
            fused_gather_scatter(source[:, 0], src, dst, 8)   # 1-D source
        with pytest.raises(Exception):
            fused_gather_scatter(source, src[:5], dst, 8)     # length skew
        with pytest.raises(Exception):
            fused_gather_scatter(source, src, dst, 8, reduce="prod")


class TestRandomizedFusion:
    """Property-style parity over seeded adversarial graphs (duplicate
    edges, isolated nodes, empty edge sets)."""

    MODELS = (("gcn", "MP"), ("gcn", "SpMM"), ("gin", "MP"),
              ("gin", "SpMM"), ("sage", "MP"), ("gat", "MP"))

    def _random_graph(self, rng, case):
        from repro.graph import Graph
        num_nodes = int(rng.integers(4, 40))
        reachable = max(1, int(rng.integers(1, num_nodes + 1)))
        num_edges = int(rng.integers(0, 4 * num_nodes))
        src = rng.integers(0, reachable, size=num_edges)
        dst = rng.integers(0, reachable, size=num_edges)
        if num_edges > 2:
            src[1], dst[1] = src[0], dst[0]           # duplicate edge
        features = rng.standard_normal(
            (num_nodes, int(rng.integers(1, 12)))).astype(np.float32)
        return Graph(np.vstack([src, dst]), num_nodes=num_nodes,
                     features=features, name=f"fusion-random-{case}")

    def test_random_graphs_fuse_identically(self):
        rng = np.random.default_rng(20260731)
        for case in range(12):
            graph = self._random_graph(rng, case)
            model, cm = self.MODELS[case % len(self.MODELS)]
            spec = PipelineSpec(model=model, compute_model=cm,
                                out_features=int(rng.integers(2, 6)),
                                hidden=int(rng.integers(2, 9)),
                                seed=int(rng.integers(0, 100)))
            reference = _build("gsuite", spec, graph, fuse=False).run()
            fused = _build("gsuite", spec, graph).run()
            assert np.array_equal(fused, reference), \
                f"case {case}: {model}/{cm}"


def _degenerate_graphs():
    """Degenerate geometries nothing else drives through the fused path."""
    from repro.graph import Graph

    def graph(name, edges, num_nodes, width=5):
        rng = np.random.default_rng(num_nodes + len(edges))
        features = rng.standard_normal((num_nodes, width)).astype(np.float32)
        edge_index = np.array(edges, dtype=np.int64).reshape(-1, 2).T
        return Graph(edge_index, num_nodes=num_nodes, features=features,
                     name=name)

    return [
        graph("no-edges", [], 6),
        graph("one-node", [], 1),
        graph("one-node-loop", [(0, 0)], 1),
        graph("self-loops-only", [(i, i) for i in range(5)], 5),
        graph("duplicate-edges", [(0, 1), (0, 1), (2, 1), (0, 1), (3, 4)],
              5),
        graph("no-in-edge-destinations", [(0, 3), (1, 3), (2, 3), (4, 3)],
              7),
    ]


class TestPlannerFusion:
    """Nothing is priced: a default pipeline fuses every legal
    gather+scatter site — no size, width or cost gate stands in front
    of the pass — and stays bit-for-bit the ``fuse="off"`` pipeline."""

    ZOO = ("gcn", "gin", "sage", "gat")
    BACKENDS = ("gsuite", "gsuite-adaptive")

    def _check(self, config, graph=None):
        from repro.core import GNNPipeline
        built = GNNPipeline(config, graph=graph).build()
        unfused = GNNPipeline(config.with_overrides(fuse="off"),
                              graph=graph).build()
        assert fusion_summary(unfused.plan) == {}
        legal = fusion_summary(fuse_plan(unfused.plan)) \
            .get("gather_scatter", 0)
        assert fusion_summary(built.plan).get("gather_scatter", 0) == legal
        assert np.array_equal(built.run(), unfused.run())   # bit-for-bit
        return legal, built

    @pytest.mark.parametrize("dataset,scale", [
        ("cora", 0.1), ("pubmed", 0.25), ("reddit", 0.01)])
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("model", ZOO)
    def test_every_legal_site_fuses(self, model, backend, dataset, scale):
        from repro.core import SuiteConfig
        legal, built = self._check(SuiteConfig(
            model=model, framework=backend, dataset=dataset, scale=scale))
        if "MP" in built.plan.layer_formats:
            assert legal > 0                  # the table is not vacuous

    @pytest.mark.parametrize("graph", _degenerate_graphs(),
                             ids=lambda g: g.name)
    @pytest.mark.parametrize("model", ZOO)
    def test_degenerate_geometries_fuse_identically(self, model, graph):
        from repro.core import SuiteConfig
        legal, _ = self._check(
            SuiteConfig(model=model, out_features=3), graph=graph)
        assert legal > 0

    def test_default_build_measures_no_graph_stats(self, graph,
                                                   monkeypatch):
        """A default build asks no planner gate that needs the O(E) pass."""
        from repro.core import GNNPipeline, SuiteConfig

        def refuse(graph):
            raise AssertionError("a default build measured GraphStats")
        monkeypatch.setattr(GraphStats, "from_graph", staticmethod(refuse))
        config = SuiteConfig(dataset="cora", model="gcn")
        built = GNNPipeline(config, graph=graph).build()
        assert any(isinstance(op, FusedGatherScatter)
                   for op in built.plan.ops)

class TestConfigAndCli:
    def test_config_validates_fuse(self):
        from repro.core import SuiteConfig
        assert SuiteConfig(fuse="off").fuse == "off"
        with pytest.raises(ConfigError):
            SuiteConfig(fuse="sometimes")

    def test_plan_command_reports_fusion(self, graph, capsys):
        from repro.cli import main
        assert main(["plan", "--dataset", "cora", "--scale", "0.1",
                     "--model", "gin"]) == 0
        out = capsys.readouterr().out
        assert "fusion: " in out
        assert "gather+scatter x2" in out
        assert "fused_gather_scatter" in out

    def test_no_fuse_escape_hatch(self, graph, capsys):
        from repro.cli import main
        assert main(["plan", "--dataset", "cora", "--scale", "0.1",
                     "--no-fuse"]) == 0
        out = capsys.readouterr().out
        assert "fusion: off" in out
        assert "fused_gather_scatter" not in out

    def test_force_spelling_is_refused(self, tmp_path, capsys):
        """``force`` left the vocabulary with the gate it overrode: the
        knob's uniform refusal at every entry point, exit status 2."""
        from repro.cli import main
        from repro.core import SuiteConfig
        refusal = "fuse must be 'auto' or 'off', got 'force'"
        with pytest.raises(ConfigError) as err:
            SuiteConfig(fuse="force")
        assert str(err.value) == refusal
        with pytest.raises(SystemExit) as exit_:
            main(["run", "--dataset", "cora", "--scale", "0.1",
                  "--fuse", "force"])
        assert exit_.value.code == 2
        assert refusal in capsys.readouterr().err
        config = tmp_path / "config.json"
        config.write_text('{"fuse": "force"}')
        assert main(["run", "--config", str(config)]) == 2
        assert refusal in capsys.readouterr().err

    def test_auto_fusion_declines_on_pyg(self, capsys):
        from repro.cli import main
        assert main(["run", "--dataset", "cora", "--scale", "0.1",
                     "--framework", "pyg"]) == 0


class TestLoweringSeam:
    """Plans are fused where they are lowered: ``cached_plan`` is the
    one caller of ``fuse_plan``, behind a ``fuse`` switch, and every
    build lowers afresh — nothing is stored or fetched."""

    @pytest.fixture
    def calls(self, monkeypatch):
        from repro.core.models.base import GNNModel
        from repro.plan import lowering
        calls = []

        def spy(owner, name):
            original = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)
            monkeypatch.setattr(owner, name, wrapper)

        spy(lowering, "fuse_plan")
        spy(GNNModel, "lower")
        return calls

    def test_every_build_lowers_and_fuses_once(self, graph, calls):
        from repro.core import GNNPipeline, SuiteConfig
        config = SuiteConfig(dataset="cora", model="gcn")
        first = GNNPipeline(config, graph=graph).build()
        assert calls == ["lower", "fuse_plan"]
        again = GNNPipeline(config, graph=graph).build()
        assert calls == ["lower", "fuse_plan"] * 2
        assert again.plan.fingerprint() == first.plan.fingerprint()
        assert any(isinstance(op, FusedGatherScatter)
                   for op in again.plan.ops)

    def test_fuse_off_lowers_without_fusing(self, graph, calls):
        from repro.core import GNNPipeline, SuiteConfig
        config = SuiteConfig(dataset="cora", model="gcn")
        unfused = GNNPipeline(config.with_overrides(fuse="off"),
                              graph=graph).build()
        assert calls == ["lower"]
        built = GNNPipeline(config, graph=graph).build()
        assert calls == ["lower", "lower", "fuse_plan"]
        legal = fusion_summary(fuse_plan(unfused.plan))["gather_scatter"]
        assert fusion_summary(unfused.plan) == {}
        assert fusion_summary(built.plan)["gather_scatter"] == legal == 2

    @pytest.mark.parametrize("backend",
                             ("gsuite", "gsuite-adaptive", "pyg", "dgl"))
    def test_builds_leave_the_trace_cache_untouched(self, graph, backend):
        from repro.cache import get_cache
        from repro.graph import BatchedGraph
        spec = _spec("gcn", "MP")
        other = load_dataset("cora", scale=0.15, seed=2)
        for workload in (graph, BatchedGraph([graph, other])):
            get_backend(backend).build(spec, workload).run()
        cache = get_cache()
        assert cache.describe()["entries"] == 0
        assert cache.stats.hits + cache.stats.misses == 0

    @pytest.mark.parametrize("model", ("gcn", "gin"))
    def test_spmm_layer_boundary_stays_two_launches(self, graph, model):
        """No pattern crosses a layer: the transform feeding the next
        layer's aggregation keeps its epilogue and stays an ``sgemm``
        followed by an ``spmm``."""
        spec = _spec(model, "SpMM")
        reference, ref_launches = _run_recorded(
            _build("gsuite", spec, graph, fuse=False))
        built = _build("gsuite", spec, graph)
        ops = built.plan.ops
        boundary = next(i for i, op in enumerate(ops[1:], 1)
                        if op.opcode == "spmm" and op.tag.endswith("l1"))
        assert ops[boundary - 1].opcode == "sgemm"
        assert ops[boundary - 1].activation == "relu"
        assert ops[boundary].dense.vid == ops[boundary - 1].out.vid
        assert {op.opcode for op in ops} <= {"normalize", "sgemm", "spmm"}
        fused, fused_launches = _run_recorded(built)
        assert fused.dtype == reference.dtype
        assert np.array_equal(fused, reference)      # bit-for-bit
        assert legacy_trace(fused_launches) == \
            [(l.kernel, l.tag) for l in ref_launches]


class TestCacheKeys:
    """The cache-key bugfix: fused and unfused plans stay distinct."""

    def test_fingerprints_differ(self, graph):
        built = _build("gsuite", _spec("gcn", "MP"), graph, fuse=False)
        fused = fuse_plan(built.plan)
        assert fused.fingerprint() != built.plan.fingerprint()

    def test_cache_info_lists_no_plan_kind(self, graph, capsys):
        from repro.cli import main
        _build("gsuite", _spec("gcn", "MP"), graph)
        assert main(["cache", "info"]) == 0
        out = capsys.readouterr().out
        assert "entries: 0 " in out
        assert "Cached artifacts" not in out

"""Integration tests for the GNNPipeline facade."""

import numpy as np
import pytest

from repro.core import GNNPipeline, SuiteConfig
from repro.errors import ConfigError
from repro.gpu import GpuSimulator, v100_config


@pytest.fixture(scope="module")
def pipeline():
    return GNNPipeline.from_params(model="gcn", dataset="cora", scale=0.15)


@pytest.fixture(scope="module")
def unfused(pipeline):
    """The ``fuse="off"`` arm: the paper's Table II kernels."""
    return GNNPipeline(pipeline.config.with_overrides(fuse="off"),
                       graph=pipeline.graph)


class TestConstruction:
    def test_from_params_uses_defaults(self, pipeline):
        assert pipeline.config.num_layers == 2
        assert pipeline.figure_label() == "gSuite-MP"

    def test_unknown_param_rejected(self):
        with pytest.raises(ConfigError):
            GNNPipeline.from_params(modle="gcn")

    def test_out_features_defaults_to_class_count(self, pipeline):
        assert pipeline.spec.out_features == 7  # Cora has 7 classes

    def test_out_features_override(self):
        pipe = GNNPipeline.from_params(dataset="cora", out_features=3,
                                       scale=0.1)
        assert pipe.spec.out_features == 3

    def test_explicit_graph_skips_loading(self):
        from repro.graph import Graph
        g = Graph(np.array([[0, 1], [1, 0]]),
                  features=np.ones((2, 4), dtype=np.float32), name="custom")
        pipe = GNNPipeline(SuiteConfig(dataset="cora"), graph=g)
        assert pipe.graph is g

    def test_figure_labels(self):
        assert GNNPipeline.from_params(framework="pyg",
                                       scale=0.1).figure_label() == "PyG"
        assert GNNPipeline.from_params(
            framework="gsuite", compute_model="SpMM",
            scale=0.1).figure_label() == "gSuite-SpMM"


class TestExecution:
    def test_run_shape(self, pipeline):
        out = pipeline.run()
        assert out.shape == (pipeline.graph.num_nodes, 7)

    def test_measure_repeats(self, pipeline):
        times = pipeline.measure(repeats=2)
        assert len(times) == 2
        assert all(t > 0 for t in times)

    def test_measure_uses_config_repeats(self):
        pipe = GNNPipeline.from_params(dataset="cora", scale=0.1, repeats=2)
        assert len(pipe.measure()) == 2

    def test_record_collects_kernel_launches(self, pipeline, unfused):
        # Default: one fused launch stands in for each gather+scatter.
        assert [l.kernel for l in pipeline.record().launches] == \
            ["sgemm", "fusedGatherScatter"] * 2
        # fuse="off": exactly the paper's Table II kernel names.
        assert [l.kernel for l in unfused.record().launches] == \
            ["sgemm", "indexSelect", "scatter"] * 2

    def test_record_respects_sample_cap(self):
        pipe = GNNPipeline.from_params(dataset="cora", scale=0.1,
                                       sample_cap=128)
        recorder = pipe.record()
        assert recorder.sample_cap == 128

    def test_simulate_and_profile(self, pipeline, unfused):
        # Default: (sgemm + fusedGatherScatter) x 2 layers; fuse="off":
        # the 3 Table II kernels x 2 layers.
        for pipe, launches in ((pipeline, 4), (unfused, 6)):
            sims = pipe.simulate(
                GpuSimulator(v100_config(max_cycles=5_000)))
            profs = pipe.profile()
            assert len(sims) == len(profs) == launches
            assert all(0 <= r.l1_hit_rate <= 1 for r in sims)
            assert all(0 <= p.l1_hit_rate <= 1 for p in profs)

    def test_backend_dispatch(self):
        mp = GNNPipeline.from_params(dataset="cora", scale=0.1,
                                     framework="pyg")
        sp = GNNPipeline.from_params(dataset="cora", scale=0.1,
                                     framework="dgl", compute_model="SpMM")
        a, b = mp.run(), sp.run()
        assert np.allclose(a, b, atol=1e-3)  # same function, two frameworks

    def test_adaptive_backend_dispatch(self):
        pipe = GNNPipeline.from_params(dataset="cora", scale=0.1,
                                       framework="gsuite-adaptive")
        assert pipe.figure_label() == "gSuite-Adaptive"
        assert pipe.run().shape == (pipe.graph.num_nodes, 7)

    def test_plan_accessor_exposes_lowered_ir(self, pipeline):
        decisions = pipeline.plan()
        assert decisions.execution_plan is not None
        assert decisions.execution_plan.op_counts()  # non-empty op stream
        # The typed decision record reflects the defaults the build
        # actually applied.
        assert decisions.batch == 1 and decisions.batch_source == "off"
        assert "plan_fingerprint" in decisions.to_dict()
        assert "cost_profile" not in decisions.to_dict()
        assert decisions.fused and decisions.fused_sites["gather_scatter"] == 2
        assert decisions.to_dict()["fused"] is True

    def test_plan_accessor_reports_unfused(self, unfused):
        decisions = unfused.plan()
        assert not decisions.fused and decisions.fused_sites == {}


class TestPersistentCacheUse:
    """simulate()/profile() must hit results/.cache like the bench engine."""

    def _fresh(self):
        return GNNPipeline.from_params(model="gcn", dataset="cora",
                                       scale=0.1)

    def test_simulate_populates_and_hits_cache(self):
        from repro.cache import get_cache
        cache = get_cache()
        first = self._fresh().simulate()
        assert cache.stats.stores > 0           # launches persisted
        before_hits = cache.stats.hits
        second = self._fresh().simulate()       # fresh pipeline, same trace
        assert cache.stats.hits > before_hits
        assert [r.cycles for r in second] == [r.cycles for r in first]

    def test_profile_populates_and_hits_cache(self):
        from repro.cache import get_cache
        cache = get_cache()
        first = self._fresh().profile()
        assert cache.stats.stores > 0
        before_hits = cache.stats.hits
        second = self._fresh().profile()
        assert cache.stats.hits > before_hits
        assert ([r.l1_hit_rate for r in second]
                == [r.l1_hit_rate for r in first])

    def test_explicit_cache_override(self, tmp_path):
        from repro.cache import TraceCache
        private = TraceCache(tmp_path / "private-cache")
        self._fresh().simulate(cache=private)
        assert private.stats.stores > 0
        self._fresh().profile(cache=private)
        assert private.stats.stores > 0

    def test_explicit_simulator_untouched(self):
        sim = GpuSimulator(v100_config(max_cycles=2_000))
        results = self._fresh().simulate(sim)
        assert sim.cache is None                # as configured
        assert results

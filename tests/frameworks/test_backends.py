"""Tests for the framework backends (native / PyG-like / DGL-like)."""

import numpy as np
import pytest

from repro.core.kernels import record_launches
from repro.datasets import load_dataset
from repro.errors import BackendError, ModelError
from repro.frameworks import (
    BACKEND_NAMES,
    BACKENDS,
    PipelineSpec,
    get_backend,
    time_end_to_end,
)
from strategies import copy_graph


@pytest.fixture(scope="module")
def graph():
    return load_dataset("cora", scale=0.15, seed=1)


class TestPipelineSpec:
    def test_defaults(self):
        spec = PipelineSpec()
        assert spec.model == "gcn"
        assert spec.compute_model == "MP"
        assert spec.num_layers == 2

    def test_invalid_layers(self):
        with pytest.raises(BackendError):
            PipelineSpec(num_layers=0)

    def test_invalid_dims(self):
        with pytest.raises(BackendError):
            PipelineSpec(hidden=0)


class TestRegistry:
    def test_all_backends_present(self):
        assert set(BACKENDS) == {"gsuite", "pyg", "dgl", "gsuite-adaptive"}
        assert set(BACKEND_NAMES) == set(BACKENDS)

    def test_aliases(self):
        assert get_backend("none").name == "gsuite"
        assert get_backend("PyTorch-Geometric").name == "PyG"
        assert get_backend("adaptive").name == "gsuite-adaptive"

    def test_unknown_backend(self):
        with pytest.raises(BackendError):
            get_backend("jax")


class TestComputeModelSupport:
    def test_pyg_rejects_spmm(self, graph):
        with pytest.raises(BackendError):
            get_backend("pyg").build(
                PipelineSpec(compute_model="SpMM"), graph)

    def test_native_supports_both(self, graph):
        for cm in ("MP", "SpMM"):
            out = get_backend("gsuite").build(
                PipelineSpec(model="gcn", compute_model=cm), graph).run()
            assert out.shape == (graph.num_nodes, 7)

    def test_native_figure_labels(self):
        backend = get_backend("gsuite")
        assert backend.figure_label(PipelineSpec(compute_model="MP")) == "gSuite-MP"
        assert backend.figure_label(PipelineSpec(compute_model="SpMM")) == "gSuite-SpMM"


class TestNumericalEquivalence:
    @pytest.mark.parametrize("model", ["gcn", "gin", "sage"])
    def test_all_backends_compute_same_function(self, graph, model):
        spec_mp = PipelineSpec(model=model, compute_model="MP", seed=5)
        spec_sp = PipelineSpec(model=model, compute_model="SpMM", seed=5)
        reference = get_backend("gsuite").build(spec_mp, graph).run()
        pyg_out = get_backend("pyg").build(spec_mp, graph).run()
        dgl_out = get_backend("dgl").build(spec_sp, graph).run()
        assert np.allclose(pyg_out, reference, atol=1e-3)
        assert np.allclose(dgl_out, reference, atol=1e-3)

    def test_feature_override(self, graph):
        spec = PipelineSpec(model="gcn", seed=2)
        zeros = np.zeros((graph.num_nodes, graph.num_features), np.float32)
        for name in BACKEND_NAMES:
            cm = "SpMM" if name == "dgl" else "MP"
            out = get_backend(name).build(
                PipelineSpec(model="gcn", compute_model=cm, seed=2),
                graph).run(features=zeros)
            assert np.allclose(out, 0.0, atol=1e-6)


def _bad_input(case, graph):
    """Mutate ``graph`` or return the ``features`` argument for ``case``."""
    n, f = graph.num_nodes, graph.num_features
    if case == "featureless":
        graph.features = None
        return None
    shape = {"too-narrow": (n, f - 1), "one-row-short": (n - 1, f),
             "1-D": (n,)}[case]
    return np.zeros(shape, np.float32)


class TestFeatureInput:
    """One input check on every backend: a bad ``X`` is refused with
    the same error before any kernel launches."""

    @pytest.mark.parametrize(
        "case", ["too-narrow", "one-row-short", "1-D", "featureless"])
    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_bad_features_are_refused_before_any_launch(self, graph, name,
                                                        case):
        own = copy_graph(graph)
        built = get_backend(name).build(
            PipelineSpec(model="gin",
                         compute_model="SpMM" if name == "dgl" else "MP"),
            own)
        features = _bad_input(case, own)
        with record_launches() as rec, pytest.raises(ModelError):
            built.run(features)
        assert rec.launches == []


class TestKernelComposition:
    def test_pyg_records_mp_kernels(self, graph):
        pipeline = get_backend("pyg").build(PipelineSpec(model="gcn"), graph)
        with record_launches() as rec:
            pipeline.run()
        kernels = {l.kernel for l in rec.launches}
        assert kernels == {"sgemm", "indexSelect", "scatter"}

    def test_dgl_records_spmm_kernels(self, graph):
        pipeline = get_backend("dgl").build(
            PipelineSpec(model="gcn", compute_model="SpMM"), graph)
        with record_launches() as rec:
            pipeline.run()
        kernels = {l.kernel for l in rec.launches}
        assert kernels == {"sgemm", "spmm"}

    def test_dgl_runs_sage_via_spmm(self, graph):
        pipeline = get_backend("dgl").build(
            PipelineSpec(model="sage", compute_model="SpMM"), graph)
        with record_launches() as rec:
            out = pipeline.run()
        assert out.shape == (graph.num_nodes, 7)
        assert any(l.kernel == "spmm" for l in rec.launches)

    def test_pyg_gcn_renormalises_every_layer(self, graph):
        """PyG's uncached gcn_norm means one gather per layer over the
        self-loop-augmented edge set."""
        pipeline = get_backend("pyg").build(
            PipelineSpec(model="gcn", num_layers=3), graph)
        with record_launches() as rec:
            pipeline.run()
        gathers = [l for l in rec.launches if l.kernel == "indexSelect"]
        assert len(gathers) == 3


class TestEndToEndTiming:
    def test_timing_returns_one_value_per_repeat(self, graph):
        times = time_end_to_end(get_backend("gsuite"), PipelineSpec(), graph,
                                repeats=3)
        assert len(times) == 3
        assert all(t > 0 for t in times)

    def test_invalid_repeats(self, graph):
        with pytest.raises(BackendError):
            time_end_to_end(get_backend("gsuite"), PipelineSpec(), graph,
                            repeats=0)

    def test_pyg_unknown_model_rejected(self, graph):
        """The PyG-like and DGL-like backends have a conv (a structure
        source) for the paper's trio only: a registered model outside
        it is refused, not run as a GCN."""
        from repro.core.models import GCN, register_model
        from repro.core.models.registry import MODELS

        class Extension(GCN):
            name = "extension-test"

        register_model("extension-test", Extension)
        try:
            for backend, compute_model in (("pyg", "MP"), ("dgl", "SpMM")):
                with pytest.raises(BackendError, match="no conv"):
                    get_backend(backend).build(
                        PipelineSpec(model="extension-test",
                                     compute_model=compute_model), graph)
        finally:
            MODELS.pop("extension-test", None)

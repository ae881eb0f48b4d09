"""Plan-vs-legacy parity: the refactor's contract.

Every backend now lowers to the shared ExecutionPlan IR and executes it
through the PlanExecutor.  These tests pin the outputs **bit-for-bit**
against the legacy direct-call paths, which survive as reference
implementations: ``GNNModel.forward`` (native), the conv modules'
``forward`` methods (PyG-like), and the ``DGLGraphLike`` + kernel loop
re-created here exactly as the seed backend ran it (DGL-like).  The
recorded kernel-launch sequences are pinned too, so simulation and
profiling consume identical traces.
"""

import numpy as np
import pytest

from repro.core.kernels import record_launches, sgemm, spmm
from repro.core.models import build_model
from repro.core.models.activations import get_activation, relu
from repro.datasets import load_dataset
from repro.frameworks import DGLGraphLike, get_backend, PipelineSpec
from repro.frameworks.pyg_like import _validate_edge_index
from strategies import lowered

MODELS_BY_BACKEND = {
    "gsuite": (("gcn", "MP"), ("gcn", "SpMM"), ("gin", "MP"),
               ("gin", "SpMM"), ("sage", "MP"), ("gat", "MP")),
    "pyg": (("gcn", "MP"), ("gin", "MP"), ("sage", "MP")),
    "dgl": (("gcn", "SpMM"), ("gin", "SpMM"), ("sage", "SpMM")),
}


@pytest.fixture(scope="module")
def graph():
    return load_dataset("cora", scale=0.15, seed=1)


def _spec(model, compute_model):
    return PipelineSpec(model=model, compute_model=compute_model, seed=5)


def _legacy_native(spec, graph):
    """The direct kernel-call path: GNNModel.forward."""
    model = build_model(
        spec.model, in_features=graph.num_features, hidden=spec.hidden,
        out_features=spec.out_features, num_layers=spec.num_layers,
        compute_model=spec.compute_model, activation=spec.activation,
        seed=spec.seed,
    )
    return model.forward(graph)


def _legacy_pyg(spec, graph):
    """The seed PyG-like run loop over the (still present) conv modules."""
    pipeline = get_backend("pyg").build(spec, graph)
    x = np.array(graph.features, dtype=np.float32, copy=True)
    edge_index = _validate_edge_index(graph.edge_index, graph.num_nodes)
    activation = get_activation(spec.activation)
    for layer, conv in enumerate(pipeline._convs):
        x = conv.forward(x, edge_index, graph.num_nodes,
                         tag=f"{spec.model}-l{layer}")
        if layer < len(pipeline._convs) - 1:
            x = activation(x)
    return x


def _legacy_dgl(spec, graph):
    """The seed DGL-like run loop: per-run graph object + SpMM convs."""
    reference = build_model(
        spec.model, in_features=graph.num_features, hidden=spec.hidden,
        out_features=spec.out_features, num_layers=spec.num_layers,
        compute_model="MP", activation=spec.activation, seed=spec.seed,
    )
    x = np.asarray(graph.features, dtype=np.float32)
    dgl_graph = DGLGraphLike(graph)
    activation = get_activation(spec.activation)
    for layer in range(spec.num_layers):
        params = reference.weights[layer]
        tag = f"{spec.model}-l{layer}"
        if spec.model == "gcn":
            propagated = spmm(dgl_graph.normalized(), x, tag=tag)
            x = sgemm(propagated, params["W"], bias=params["b"], tag=tag)
        elif spec.model == "gin":
            agg = spmm(dgl_graph.plain(), x, tag=tag)
            combined = (1.0 + reference.epsilon) * x + agg
            hidden = relu(sgemm(combined, params["W1"], bias=params["b1"],
                                tag=tag))
            x = sgemm(hidden, params["W2"], bias=params["b2"], tag=tag)
        else:
            mean_neigh = spmm(dgl_graph.mean_adjacency(), x, tag=tag)
            x = (sgemm(x, params["W1"], tag=tag,
                       rows=graph.feature_rows(x))
                 + sgemm(mean_neigh, params["W2"], bias=params["b"],
                         tag=tag))
        if layer < spec.num_layers - 1:
            x = activation(x)
    return x


_LEGACY = {"gsuite": _legacy_native, "pyg": _legacy_pyg, "dgl": _legacy_dgl}


def _combos():
    return [(backend, model, cm)
            for backend, combos in MODELS_BY_BACKEND.items()
            for model, cm in combos]


class TestBitwiseParity:
    @pytest.mark.parametrize("backend,model,cm", _combos())
    def test_plan_output_equals_legacy(self, graph, backend, model, cm):
        spec = _spec(model, cm)
        legacy = _LEGACY[backend](spec, graph)
        planned = lowered(backend, spec, graph).run()
        assert planned.dtype == legacy.dtype
        assert np.array_equal(planned, legacy)   # bit-for-bit

    @pytest.mark.parametrize("backend,model,cm", _combos())
    def test_recorded_trace_identical(self, graph, backend, model, cm):
        """Simulation/profiling consume the exact same launch stream."""
        spec = _spec(model, cm)
        with record_launches() as legacy_rec:
            _LEGACY[backend](spec, graph)
        pipeline = lowered(backend, spec, graph)
        with record_launches() as plan_rec:
            pipeline.run()
        legacy_trace = [(l.kernel, l.tag, l.threads, l.flops,
                         l.bytes_read, l.bytes_written)
                        for l in legacy_rec.launches]
        plan_trace = [(l.kernel, l.tag, l.threads, l.flops,
                       l.bytes_read, l.bytes_written)
                      for l in plan_rec.launches]
        assert plan_trace == legacy_trace

    @pytest.mark.parametrize("model", ["gcn", "gin", "sage"])
    def test_pyg_tape_matches_legacy_conv_path(self, graph, model):
        """The autograd-style tape records the same node sequence the
        direct conv loop produced (message nodes included)."""
        spec = _spec(model, "MP")
        planned = get_backend("pyg").build(spec, graph)
        planned.run()
        reference = get_backend("pyg").build(spec, graph)
        x = np.array(graph.features, dtype=np.float32, copy=True)
        edge_index = _validate_edge_index(graph.edge_index, graph.num_nodes)
        activation = get_activation(spec.activation)
        for layer, conv in enumerate(reference._convs):
            x = conv.forward(x, edge_index, graph.num_nodes,
                             tag=f"{model}-l{layer}")
            if layer < len(reference._convs) - 1:
                x = activation(x)
        assert ([n["op"] for n in planned._tape.nodes]
                == [n["op"] for n in reference._tape.nodes])

    def test_rebuild_is_deterministic_bitwise(self, graph):
        """Lowering the same spec twice yields the same plan and output."""
        spec = _spec("gcn", "MP")
        first = lowered("gsuite", spec, graph)
        second = lowered("gsuite", spec, graph)
        assert second.plan.fingerprint() == first.plan.fingerprint()
        assert np.array_equal(first.run(), second.run())

    def test_adaptive_matches_native_function(self, graph):
        """The planner changes the *execution*, never the function."""
        for model in ("gcn", "gin", "sage", "gat"):
            spec = _spec(model, "MP")
            reference = lowered("gsuite", spec, graph).run()
            adaptive = lowered("gsuite-adaptive", spec, graph).run()
            assert np.allclose(adaptive, reference, atol=1e-3)


class TestExtensionModelFallback:
    """Extension models without lowering hooks keep working unlowered."""

    def _register(self):
        from repro.core.kernels import sgemm
        from repro.core.models import GNNModel, register_model
        from repro.graph import normalized_adjacency

        class DirectOnly(GNNModel):
            name = "direct-only"
            supported_compute_models = ("MP",)

            def prepare(self, graph):
                return {"propagation": normalized_adjacency(graph)}

            def layer_forward(self, layer, x, graph, state):
                params = self.weights[layer]
                mixed = state["propagation"].matmul(x)
                return sgemm(mixed, params["W"], bias=params["b"],
                             tag=f"direct-l{layer}")

        register_model("direct-only", DirectOnly, overwrite=True)

    def test_native_and_adaptive_fall_back_to_forward(self, graph):
        self._register()
        for backend in ("gsuite", "gsuite-adaptive"):
            built = lowered(backend, _spec("direct-only", "MP"), graph)
            assert built.plan is None
            out = built.run()
            assert out.shape == (graph.num_nodes, 7)
            assert np.all(np.isfinite(out))

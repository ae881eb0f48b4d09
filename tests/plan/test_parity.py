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
from repro.core.models import GNNModel, build_model, register_model
from repro.core.models.activations import get_activation, relu
from repro.core.models.registry import MODELS
from repro.datasets import load_dataset
from repro.errors import ModelError
from repro.frameworks import DGLGraphLike, get_backend, PipelineSpec
from repro.frameworks.pyg_like import _validate_edge_index
from repro.plan import ExecutionPlan
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


class _SGC(GNNModel):
    """A registered extension model written only as its lowering:
    two propagation hops, then one linear layer."""

    name = "sgc-test"
    supported_compute_models = ("MP", "SpMM")

    def __init__(self, *args, **kwargs):
        kwargs["num_layers"] = 1
        super().__init__(*args, **kwargs)

    def lower_prepare(self, builder, fmt):
        if fmt == "MP":
            src, dst, weight = builder.normalize(
                "gcn_edge_weights",
                outputs=(("src", "edge"), ("dst", "edge"), ("weight", "vec")))
            return {"src": src, "dst": dst, "weight": weight}
        propagation, = builder.normalize(
            "gcn_propagation", outputs=(("propagation", "csr"),),
            tag="sgc-normalize")
        return {"propagation": propagation}

    def lower_layer(self, layer, x, builder, state, fmt):
        for hop in range(2):
            if fmt == "MP":
                messages = builder.gather(x, state["src"],
                                          scale=state["weight"],
                                          tag=f"sgc-hop{hop}")
                x = builder.scatter_reduce(messages, state["dst"],
                                           reduce="sum", tag=f"sgc-hop{hop}")
            else:
                x = builder.spmm(state["propagation"], x,
                                 tag=f"sgc-hop{hop}")
        params = self.weights[layer]
        return builder.sgemm(x, builder.constant(params["W"], name="W"),
                             bias=builder.constant(params["b"], name="b"),
                             tag="sgc-linear")


class TestExtensionModel:
    """A registered extension model runs as a plan on both gSuite
    backends, with everything a zoo model gets from the plan layer."""

    @pytest.fixture(autouse=True)
    def registered(self):
        register_model("sgc-test", _SGC)
        yield
        MODELS.pop("sgc-test", None)

    @pytest.mark.parametrize("backend", ["gsuite", "gsuite-adaptive"])
    def test_runs_as_a_fused_plan(self, graph, backend):
        built = get_backend(backend).build(_spec("sgc-test", "MP"), graph)
        assert isinstance(built.plan, ExecutionPlan)
        with record_launches() as rec:
            out = built.run()
        assert out.shape == (graph.num_nodes, 7)
        assert "fusedGatherScatter" in {l.kernel for l in rec.launches}

    def test_mp_and_spmm_agree(self, graph):
        mp, sp = (get_backend("gsuite").build(_spec("sgc-test", cm),
                                              graph).run()
                  for cm in ("MP", "SpMM"))
        assert np.allclose(mp, sp, atol=1e-5)

    def test_register_refuses_a_model_without_lower_layer(self):
        class DirectOnly(GNNModel):
            def layer_forward(self, layer, x, graph, state):
                return sgemm(x, self.weights[layer]["W"], tag="direct")

        with pytest.raises(ModelError, match="lower_layer"):
            register_model("direct-only", DirectOnly)
        assert "direct-only" not in MODELS

"""Every backend's plan against one float64 oracle and one launch stream.

Every backend lowers to the shared ExecutionPlan IR and executes it
through the PlanExecutor.  These tests pin what the plans compute:

* each layer of every backend x model plan sits within a derived float32
  error bound of ``tests/oracle.py``'s float64 re-derivation of the
  model — the function the retired direct-call paths computed;
* each unfused plan's recorded Table II launch stream equals
  ``golden_launches.json``, frozen from the parity combos on
  cora@0.15 at the last commit where those direct paths still existed
  and emitted the identical stream, so simulation and profiling keep
  consuming the same traces;
* the PyG-like tape records the node sequence the PyG conv loop did.

Run as a script, this module prints ``golden_launches.json`` for
whatever ``repro`` is importable; to re-freeze after an *intended*
change to a launch stream::

    PYTHONPATH=src:tests python tests/plan/test_parity.py > tests/plan/golden_launches.json
"""

import copy
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracle import layer_ratios, reference_model
from repro.core.kernels import record_launches, sgemm
from repro.core.models import GNNModel, build_model, register_model
from repro.core.models.registry import MODELS
from repro.datasets import load_dataset
from repro.errors import ModelError
from repro.frameworks import get_backend, PipelineSpec
from repro.graph import Graph
from repro.plan import ExecutionPlan, Normalize
from strategies import (
    EXECUTABLE_COMBOS,
    STANDARD_SETTINGS,
    ZOO,
    executable_combos,
    lowered,
    power_law_graphs,
)

GOLDEN_LAUNCHES_PATH = Path(__file__).with_name("golden_launches.json")

#: The combos ``golden_launches.json`` pins, in its order: every
#: executable one but the adaptive backend's, whose layer formats are
#: its planner's pick among the native plans (held to the native
#: function by ``test_adaptive_matches_native_function``).
PARITY_COMBOS = tuple(combo for combo in EXECUTABLE_COMBOS
                      if combo[0] != "gsuite-adaptive")

#: The combos whose plans a framework backend lowers.
FRAMEWORK_COMBOS = tuple(combo for combo in EXECUTABLE_COMBOS
                         if combo[0] in ("pyg", "dgl"))

#: One layer's PyG-like tape, as the PyG conv loop recorded it.
PYG_TAPE = {
    "gcn": ("sgemm", "index_select", "message", "scatter"),
    "gin": ("index_select", "message", "scatter", "sgemm", "sgemm"),
    "sage": ("index_select", "message", "scatter", "sgemm", "sgemm"),
}


def _parity_graph():
    return load_dataset("cora", scale=0.15, seed=1)


@pytest.fixture(scope="module")
def graph():
    return _parity_graph()


def _spec(model, compute_model):
    return PipelineSpec(model=model, compute_model=compute_model, seed=5)


def _launch_stream(backend, model, cm, graph):
    """The unfused plan's launches as ``[kernel, tag, threads, flops,
    bytes_read, bytes_written]`` rows."""
    pipeline = lowered(backend, _spec(model, cm), graph)
    with record_launches() as rec:
        pipeline.run()
    return [[l.kernel, l.tag, int(l.threads), float(l.flops),
             float(l.bytes_read), float(l.bytes_written)]
            for l in rec.launches]


def golden_launches_text(graph) -> str:
    """``golden_launches.json``'s content: one launch per line."""
    blocks = []
    for backend, model, cm in PARITY_COMBOS:
        rows = _launch_stream(backend, model, cm, graph)
        blocks.append(f" {json.dumps(f'{backend}/{model}/{cm}')}: [\n"
                      + ",\n".join(f"  {json.dumps(row)}" for row in rows)
                      + "\n ]")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


def _layer_ops(plan):
    """The plan's non-Normalize ops as ``(opcode, tag, kind or
    function)``."""
    return [(op.opcode, op.tag,
             getattr(op, "kind", None) or getattr(op, "function", ""))
            for op in plan.ops if not isinstance(op, Normalize)]


def _wrong_models(right):
    """Three near misses of ``right``: every weight matrix x 1.001,
    layer 0's output bias + 0.01, and (GIN) epsilon 0.11 for 0.1."""
    scaled = copy.deepcopy(right)
    for params in scaled.weights:
        for key, value in params.items():
            if value.ndim == 2:
                params[key] = value * np.float32(1.001)
    shifted = copy.deepcopy(right)
    bias = "b2" if right.name == "gin" else "b"
    shifted.weights[0][bias] = shifted.weights[0][bias] + np.float32(0.01)
    wrong = [scaled, shifted]
    if right.name == "gin":
        assert right.epsilon == 0.1
        wrong.append(copy.deepcopy(right))
        wrong[-1].epsilon = 0.11
    return wrong


class TestBitwiseParity:
    """The parity combos on cora@0.15.  The names predate the oracle:
    "legacy" is the function the direct-call paths computed, now
    re-derived in float64; launch streams and tapes stay exact."""

    @pytest.mark.parametrize("backend,model,cm", EXECUTABLE_COMBOS)
    def test_plan_output_equals_legacy(self, graph, backend, model, cm):
        """Every layer keeps to the oracle's bound: the legacy function,
        re-derived in float64 (``tests/oracle.py``)."""
        spec = _spec(model, cm)
        ratios = layer_ratios(lowered(backend, spec, graph),
                              reference_model(spec, graph))
        assert max(ratios) <= 1.0, ratios

    @pytest.mark.parametrize("backend,model,cm", PARITY_COMBOS)
    def test_recorded_trace_identical(self, graph, backend, model, cm):
        """Simulation/profiling consume the frozen launch stream."""
        golden = json.loads(GOLDEN_LAUNCHES_PATH.read_text())
        assert _launch_stream(backend, model, cm, graph) \
            == golden[f"{backend}/{model}/{cm}"]

    @pytest.mark.parametrize("model", [model for backend, model, _
                                       in EXECUTABLE_COMBOS
                                       if backend == "pyg"])
    def test_pyg_tape_matches_legacy_conv_path(self, graph, model):
        """The autograd-style tape records the node sequence the PyG
        conv loop produced, message nodes included."""
        spec = _spec(model, "MP")
        pipeline = get_backend("pyg").build(spec, graph)
        pipeline.run()
        assert [n["op"] for n in pipeline._tape.nodes] \
            == list(PYG_TAPE[model] * spec.num_layers)

    @pytest.mark.parametrize("backend,model,cm", FRAMEWORK_COMBOS)
    def test_framework_plans_run_the_native_layers(self, graph, backend,
                                                    model, cm):
        """The PyG-like and DGL-like backends supply structures to the
        zoo's own ``lower_layer``: outside their Normalize ops, their
        plans are the native plan in the same formats.  The one reading
        of its own is DGL's GINConv, which sums over the plain
        adjacency and then adds ``(1 + eps) h``: one ``combine`` after
        each layer's ``spmm``."""
        spec = _spec(model, cm)
        framework = _layer_ops(lowered(backend, spec, graph).plan)
        native = _layer_ops(build_model(
            model, in_features=graph.num_features, hidden=spec.hidden,
            out_features=spec.out_features, num_layers=spec.num_layers,
            seed=spec.seed).lower([cm] * spec.num_layers))
        if (backend, model) == ("dgl", "gin"):
            combines = [i for i, op in enumerate(framework)
                        if op == ("elementwise", "", "combine")]
            assert [framework[i - 1] for i in combines] == [
                ("spmm", f"gin-l{layer}", "")
                for layer in range(spec.num_layers)]
            framework = [op for i, op in enumerate(framework)
                         if i not in combines]
        assert framework == native

    @pytest.mark.parametrize("backend,model,cm", FRAMEWORK_COMBOS)
    def test_framework_structures_are_rebuilt_where_the_framework_does(
            self, graph, backend, model, cm):
        """PyG-like re-derives ``gcn_norm`` and SAGE's self-loop
        endpoints in every layer and splits the edge index once per
        run; DGL-like builds one graph object per run."""
        spec = _spec(model, cm)
        kinds = [op.kind for op in lowered(backend, spec, graph).plan.ops
                 if isinstance(op, Normalize)]
        per_run = {"pyg": {"gcn": ["pyg_gcn_norm"] * spec.num_layers,
                           "gin": ["split_edges"],
                           "sage": ["pyg_sage_endpoints"] * spec.num_layers},
                   "dgl": {model: ["dgl_graph"]}}
        assert kinds == per_run[backend][model]

    def test_rebuild_is_deterministic_bitwise(self, graph):
        """Lowering the same spec twice yields the same plan and output."""
        spec = _spec("gcn", "MP")
        first = lowered("gsuite", spec, graph)
        second = lowered("gsuite", spec, graph)
        assert second.plan.fingerprint() == first.plan.fingerprint()
        assert np.array_equal(first.run(), second.run())

    def test_adaptive_matches_native_function(self, graph):
        """The planner changes the *execution*, never the function."""
        for backend, model, cm in EXECUTABLE_COMBOS:
            if backend != "gsuite-adaptive":
                continue
            spec = _spec(model, cm)
            reference = lowered("gsuite", spec, graph).run()
            adaptive = lowered("gsuite-adaptive", spec, graph).run()
            assert np.allclose(adaptive, reference, atol=1e-3)


def _multigraph():
    """Two self-loops on node 0, one on node 3, parallel edges 1 -> 2
    and an isolated node 4."""
    features = np.random.default_rng(0).standard_normal((5, 6))
    return Graph(np.array([[0, 0, 1, 1, 2, 3, 2], [0, 0, 2, 2, 1, 3, 0]]),
                 num_nodes=5, features=features.astype(np.float32),
                 name="multigraph")


class TestOracle:
    @pytest.mark.parametrize("model", ZOO)
    def test_rejects_wrong_models(self, graph, model):
        """The bound is tight enough to see a near miss at any layer."""
        spec = _spec(model, "MP")
        pipeline = lowered("gsuite", spec, graph)
        right = reference_model(spec, graph)
        assert max(layer_ratios(pipeline, right)) <= 1.0
        for wrong in _wrong_models(right):
            assert max(layer_ratios(pipeline, wrong)) > 1.0

    @pytest.mark.parametrize("backend,model,cm", EXECUTABLE_COMBOS)
    def test_self_loops_and_parallel_edges(self, backend, model, cm):
        """PyG's SAGEConv adds a loop where one exists, the rest do not;
        parallel edges count twice everywhere."""
        graph = _multigraph()
        spec = PipelineSpec(model=model, compute_model=cm, seed=3)
        ratios = layer_ratios(lowered(backend, spec, graph),
                              reference_model(spec, graph))
        assert max(ratios) <= 1.0, ratios


@STANDARD_SETTINGS   # ~7 ms an example: whole pipelines, but tiny graphs
@given(combo=executable_combos(), graph=power_law_graphs(),
       layers=st.integers(1, 3), seed=st.integers(0, 2**16))
def test_plans_keep_to_the_oracle(combo, graph, layers, seed):
    """Property: every backend x model plan, over any power-law graph
    (self-loops and parallel edges arise by chance), computes the
    oracle's function — the MP-vs-SpMM comparability premise."""
    backend, model, cm = combo
    spec = PipelineSpec(model=model, compute_model=cm, num_layers=layers,
                        seed=seed)
    ratios = layer_ratios(lowered(backend, spec, graph),
                          reference_model(spec, graph))
    assert max(ratios) <= 1.0, ratios


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


if __name__ == "__main__":
    print(golden_launches_text(_parity_graph()), end="")

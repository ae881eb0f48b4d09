"""PyG-like backend: a faithful miniature of PyTorch Geometric's
execution style.

PyG's costs, re-created here as *real work* (never artificial delays):

* a module system — every conv holds ``Parameter`` objects that are
  re-initialised by ``reset_parameters`` during construction (then
  overwritten with the spec's weights, exactly like loading a state
  dict);
* eager per-forward validation — edge-index dtype/bounds checks and
  tensor re-materialisation on every call;
* uncached normalisation — ``GCNConv`` recomputes ``gcn_norm`` (degrees,
  rsqrt, per-edge weights) on every forward, PyG's default
  ``cached=False`` behaviour;
* an autograd-style tape — every executed plan op appends a graph node,
  the bookkeeping PyTorch performs even in inference mode unless
  explicitly disabled.

The pipeline *lowers* to the shared :class:`~repro.plan.ir.ExecutionPlan`
IR (flavoured with PyG's per-layer uncached ``gcn_norm`` and per-call
edge re-validation) and executes it through the instrumented core
kernels, so kernel-level recordings of this backend mirror Fig. 4's PyG
column.  The conv classes below only hold parameters: their
construction is the ``reset_parameters`` cost Fig. 3 measures, and the
plan reads its weights from them.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.core.models import build_model
from repro.errors import BackendError
from repro.frameworks.base import Backend, BuiltPipeline, PipelineSpec
from repro.graph import Graph
from repro.plan import ExecutionPlan, PlanBuilder, PlanExecutor, cached_plan

__all__ = ["PyGLikeBackend"]


class Parameter:
    """A named, validated weight tensor (the Module system's leaf)."""

    def __init__(self, shape, rng: np.random.Generator):
        self.shape = tuple(shape)
        self.data = np.empty(self.shape, dtype=np.float32)
        self.reset(rng)

    def reset(self, rng: np.random.Generator) -> None:
        """Kaiming-style re-initialisation (PyG's reset_parameters)."""
        fan_in = self.shape[0] if len(self.shape) > 1 else max(1, self.shape[0])
        bound = 1.0 / np.sqrt(fan_in)
        self.data[...] = rng.uniform(-bound, bound, size=self.shape)

    def load(self, values: np.ndarray) -> None:
        """State-dict style load with shape validation."""
        values = np.asarray(values, dtype=np.float32)
        if values.shape != self.shape:
            raise BackendError(
                f"parameter shape mismatch: expected {self.shape}, "
                f"got {values.shape}"
            )
        self.data[...] = values


class _Tape:
    """Autograd-graph stand-in: one node per traced operation."""

    def __init__(self):
        self.nodes: List[Dict[str, object]] = []

    def record(self, op: str, *shapes) -> None:
        self.nodes.append({"op": op, "shapes": tuple(shapes)})


def _validate_edge_index(edge_index: np.ndarray, num_nodes: int) -> np.ndarray:
    """PyG's eager per-forward edge-index validation."""
    if edge_index.dtype != np.int64:
        edge_index = edge_index.astype(np.int64)
    if edge_index.ndim != 2 or edge_index.shape[0] != 2:
        raise BackendError(f"edge_index must be (2, E), got {edge_index.shape}")
    if edge_index.size:
        lo, hi = int(edge_index.min()), int(edge_index.max())
        if lo < 0 or hi >= num_nodes:
            raise BackendError("edge_index out of bounds")
    return np.ascontiguousarray(edge_index)


def _gcn_norm(edge_index: np.ndarray, num_nodes: int):
    """PyG's gcn_norm: remaining self-loops + 1/sqrt(du dv), per call."""
    has_loop = np.zeros(num_nodes, dtype=bool)
    loops_present = edge_index[0] == edge_index[1]
    has_loop[edge_index[0][loops_present]] = True
    missing = np.nonzero(~has_loop)[0]
    full = np.hstack([edge_index, np.vstack([missing, missing])])
    degree = np.zeros(num_nodes, dtype=np.float64)
    np.add.at(degree, full[1], 1.0)
    inv_sqrt = np.zeros_like(degree)
    positive = degree > 0
    inv_sqrt[positive] = 1.0 / np.sqrt(degree[positive])
    weight = (inv_sqrt[full[0]] * inv_sqrt[full[1]]).astype(np.float32)
    return full, weight


class GCNConv:
    """GCNConv's parameters; its uncached ``gcn_norm`` is a per-layer
    Normalize op of the lowered plan."""

    def __init__(self, fan_in: int, fan_out: int, rng):
        self.weight = Parameter((fan_in, fan_out), rng)
        self.bias = Parameter((fan_out,), rng)


class GINConv:
    """GINConv's parameters: the standard 2-layer MLP."""

    def __init__(self, fan_in: int, fan_out: int, epsilon: float, rng):
        mlp_hidden = max(fan_in, fan_out)
        self.epsilon = epsilon
        self.w1 = Parameter((fan_in, mlp_hidden), rng)
        self.b1 = Parameter((mlp_hidden,), rng)
        self.w2 = Parameter((mlp_hidden, fan_out), rng)
        self.b2 = Parameter((fan_out,), rng)


class SAGEConv:
    """SAGEConv's parameters (mean aggregation over N(v) + v)."""

    def __init__(self, fan_in: int, fan_out: int, rng):
        self.w_self = Parameter((fan_in, fan_out), rng)
        self.w_neigh = Parameter((fan_in, fan_out), rng)
        self.bias = Parameter((fan_out,), rng)


def _lower_pyg(spec: PipelineSpec, convs: List) -> ExecutionPlan:
    """Lower the conv stack to a PyG-flavoured execution plan.

    The plan reproduces PyG's execution structure op for op: the edge
    index is a *runtime* input (re-validated and re-split every call),
    ``gcn_norm`` and SAGE's diagonal augmentation are per-layer
    Normalize ops (PyG's uncached defaults), and all math flows through
    the instrumented core kernels.
    """
    builder = PlanBuilder(model=spec.model, flavor="pyg")
    x = builder.input("X", fmt="dense")
    edge_index = builder.input("edge_index", fmt="edge")
    if spec.model == "gin":
        src, dst = builder.normalize(
            "split_edges", outputs=(("src", "edge"), ("dst", "edge")),
            inputs=(edge_index,))
    for layer, conv in enumerate(convs):
        tag = f"{spec.model}-l{layer}"
        if spec.model == "gcn":
            full_src, full_dst, norm_weight = builder.normalize(
                "pyg_gcn_norm",
                outputs=(("src", "edge"), ("dst", "edge"), ("weight", "vec")),
                inputs=(edge_index,))
            weight = builder.constant(conv.weight.data, name=f"l{layer}.W")
            bias = builder.constant(conv.bias.data, name=f"l{layer}.b")
            h = builder.sgemm(x, weight, tag=tag)
            messages = builder.gather(h, full_src, scale=norm_weight, tag=tag)
            aggregated = builder.scatter_reduce(messages, full_dst,
                                                reduce="sum", tag=tag)
            x = builder.elementwise("add_bias", aggregated, bias)
        elif spec.model == "gin":
            w1 = builder.constant(conv.w1.data, name=f"l{layer}.W1")
            b1 = builder.constant(conv.b1.data, name=f"l{layer}.b1")
            w2 = builder.constant(conv.w2.data, name=f"l{layer}.W2")
            b2 = builder.constant(conv.b2.data, name=f"l{layer}.b2")
            messages = builder.gather(x, src, tag=tag)
            agg = builder.scatter_reduce(messages, dst, reduce="sum", tag=tag)
            combined = builder.elementwise("combine", x, agg,
                                           alpha=conv.epsilon)
            hidden = builder.activation(
                builder.sgemm(combined, w1, bias=b1, tag=tag), "relu")
            x = builder.sgemm(hidden, w2, bias=b2, tag=tag)
        else:  # sage
            full_src, full_dst = builder.normalize(
                "pyg_sage_endpoints",
                outputs=(("src", "edge"), ("dst", "edge")),
                inputs=(edge_index,))
            w_self = builder.constant(conv.w_self.data, name=f"l{layer}.W1")
            w_neigh = builder.constant(conv.w_neigh.data, name=f"l{layer}.W2")
            bias = builder.constant(conv.bias.data, name=f"l{layer}.b")
            messages = builder.gather(x, full_src, tag=tag)
            mean_neigh = builder.scatter_reduce(messages, full_dst,
                                                reduce="mean", tag=tag)
            self_part = builder.sgemm(x, w_self, tag=tag)
            neigh_part = builder.sgemm(mean_neigh, w_neigh, bias=bias,
                                       tag=tag)
            x = builder.elementwise("add", self_part, neigh_part)
        if layer < len(convs) - 1:
            x = builder.activation(x, spec.activation)
    return builder.build(x, layer_formats=("MP",) * len(convs))


#: Plan opcode -> the tape label PyG's autograd graph gives the op.
_TAPE_LABELS = {"gather": "index_select", "scatter": "scatter",
                "sgemm": "sgemm"}


class _PyGLikePipeline(BuiltPipeline):
    #: ``run`` converts its input to a fresh tensor on every call, as
    #: PyG does, so no first layer here ever sees a resident operand.
    resident_features = False

    def __init__(self, spec: PipelineSpec, graph: Graph):
        super().__init__("PyG", spec, graph)
        self._tape = _Tape()
        rng = np.random.default_rng(spec.seed + 1)

        # Construct conv modules (reset_parameters runs here)...
        reference = build_model(
            spec.model, in_features=graph.num_features, hidden=spec.hidden,
            out_features=spec.out_features, num_layers=spec.num_layers,
            compute_model="MP", activation=spec.activation, seed=spec.seed,
        )
        self._convs = []
        for layer, (fan_in, fan_out) in enumerate(reference.dims):
            params = reference.weights[layer]
            if spec.model == "gcn":
                conv = GCNConv(fan_in, fan_out, rng)
                conv.weight.load(params["W"])
                conv.bias.load(params["b"])
            elif spec.model == "gin":
                conv = GINConv(fan_in, fan_out, reference.epsilon, rng)
                conv.w1.load(params["W1"])
                conv.b1.load(params["b1"])
                conv.w2.load(params["W2"])
                conv.b2.load(params["b2"])
            elif spec.model in ("sage", "sag"):
                conv = SAGEConv(fan_in, fan_out, rng)
                conv.w_self.load(params["W1"])
                conv.w_neigh.load(params["W2"])
                conv.bias.load(params["b"])
            else:
                raise BackendError(f"PyG backend has no conv for {spec.model!r}")
            self._convs.append(conv)

        # The tape below records one node per lowered op, so this plan
        # never takes the fusion pass.
        self.plan = cached_plan(graph, lambda: _lower_pyg(spec, self._convs),
                                fuse=False)
        self._executor = PlanExecutor(on_op=self._record_op)

    def _record_op(self, op, result) -> None:
        """Autograd-style bookkeeping, one node per traced op: every
        gather is followed by its ``message`` node (PyG records the
        message step even for identity messages)."""
        label = _TAPE_LABELS.get(op.opcode)
        if label is None:
            return
        shape = getattr(result, "shape", ())
        self._tape.record(label, shape)
        if op.opcode == "gather":
            self._tape.record("message", shape)

    def run(self, features: Optional[np.ndarray] = None) -> np.ndarray:
        graph = self.graph
        # Tensor re-materialisation: PyG converts inputs on every call.
        x = np.array(self.input_features(features), copy=True)
        edge_index = _validate_edge_index(graph.edge_index, graph.num_nodes)
        return self._executor.run(self.plan, graph,
                                  {"X": x, "edge_index": edge_index})


class PyGLikeBackend(Backend):
    """PyTorch-Geometric-style execution (MP computational model only)."""

    name = "PyG"
    supported_compute_models = ("MP",)

    def build(self, spec: PipelineSpec, graph: Graph,
              fuse: bool = True) -> BuiltPipeline:
        self.check_spec(spec)
        return _PyGLikePipeline(spec, graph)

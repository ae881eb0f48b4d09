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
  explicitly disabled; each forward starts a fresh tape, so a pipeline
  run many times holds one forward's nodes.

The layer math is the model zoo's own MP lowering
(:meth:`~repro.core.models.GNNModel.lower_layer`); this backend only
supplies its structures (:data:`_STRUCTURES`), each a Normalize op over
a runtime ``edge_index`` input: PyG's per-layer uncached ``gcn_norm``
and SAGE diagonal augmentation, GIN's per-run edge split.  The plan
runs through the instrumented core kernels, so kernel-level recordings
of this backend mirror Fig. 4's PyG column.  Each conv's parameters are
one :class:`Parameter` per entry of the reference model's layer
weights, in their draw order: their construction is the
``reset_parameters`` cost Fig. 3 measures.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.errors import BackendError
from repro.frameworks.base import Backend, BuiltPipeline, PipelineSpec
from repro.graph import Graph
from repro.plan import PlanExecutor, cached_plan

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


#: Model -> the structure PyG's conv re-derives from the runtime
#: ``edge_index``: ``(Normalize kind, its outputs, whether it runs in
#: every layer's forward rather than once per run)``.  The output names
#: are the state keys the model's MP ``lower_layer`` reads.
_EDGES = (("src", "edge"), ("dst", "edge"))
_STRUCTURES = {
    "gcn": ("pyg_gcn_norm", _EDGES + (("weight", "vec"),), True),
    "gin": ("split_edges", _EDGES, False),
    "sage": ("pyg_sage_endpoints", _EDGES, True),
}


def _structure_source(kind: str, outputs, per_layer: bool):
    """The ``prepare`` hook of :meth:`~repro.core.models.GNNModel.lower`
    that reads every structure from a runtime ``edge_index`` input:
    re-validated and re-split on every call, with ``gcn_norm`` and
    SAGE's diagonal augmentation redone per layer (PyG's uncached
    defaults)."""
    edge_index = state = None

    def prepare(builder, fmt, layer):
        nonlocal edge_index, state
        if layer == 0:
            edge_index = builder.input("edge_index", fmt="edge")
        if layer == 0 or per_layer:
            refs = builder.normalize(kind, outputs=outputs,
                                     inputs=(edge_index,))
            state = {name: ref for (name, _), ref in zip(outputs, refs)}
        return state

    return prepare


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

        reference = spec.zoo_model(graph, "MP")
        structure = _STRUCTURES.get(reference.name)
        if structure is None:
            raise BackendError(f"PyG backend has no conv for {spec.model!r}")
        # Construct the conv modules' parameters (reset_parameters runs
        # here), one per reference weight in its draw order, then load
        # the reference values as a state dict would.
        self.parameters: List[Dict[str, Parameter]] = []
        for weights in reference.weights:
            layer = {name: Parameter(values.shape, rng)
                     for name, values in weights.items()}
            for name, parameter in layer.items():
                parameter.load(weights[name])
            self.parameters.append(layer)

        # The tape below records one node per lowered op, so this plan
        # never takes the fusion pass.
        formats = ("MP",) * reference.num_layers
        self.plan = cached_plan(
            graph, lambda: reference.lower(
                formats, flavor="pyg", prepare=_structure_source(*structure)),
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
        # A fresh autograd graph per forward, as PyG builds one: the
        # tape holds the latest run's nodes only.
        self._tape = _Tape()
        # Tensor re-materialisation: PyG converts inputs on every call,
        # from the dense matrix (a row-sparse X's dense view).
        x = self.input_features(features)
        x = np.array(graph.features if x is graph.stored_features else x,
                     copy=True)
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

"""DGL-like backend: Deep Graph Library's SpMM execution style.

DGL's characteristic structure, re-created as real work:

* a graph object built up-front per pipeline run — CSR and CSC forms,
  cached degrees, format bookkeeping (DGL's ``to_block``/format
  materialisation cost);
* fused sparse aggregation — every conv is an ``spmm`` over a cached
  sparse structure plus an ``sgemm``, with far less per-call Python
  dispatch than the PyG path;
* normalisation folded into the cached structure (DGL's ``GraphConv``
  norm='both'), so it is paid once per pipeline, not per layer.

DGL realises a SAGE conv too (mean aggregation as a row-normalised
SpMM), so — unlike native gSuite, where SAGE is MP-only — this backend
supports all three models, matching the paper's Fig. 3/4 grids.

The pipeline lowers to the shared :class:`~repro.plan.ir.ExecutionPlan`
IR: the up-front graph-object materialisation is a per-run ``dgl_graph``
Normalize op, the cached structures (``normalized`` / ``mean`` /
``plain``) are Normalize ops over it, and each conv is one SpMM plus
the dense SGEMM transform.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.models import build_model
from repro.core.models.sage import mean_adjacency_matrix
from repro.errors import BackendError
from repro.frameworks.base import Backend, BuiltPipeline, PipelineSpec
from repro.graph import Graph, normalized_adjacency
from repro.graph.formats import CSRMatrix
from repro.plan import ExecutionPlan, PlanBuilder, PlanExecutor, cached_plan

__all__ = ["DGLLikeBackend"]


class DGLGraphLike:
    """A DGL-style graph object: multi-format, degree-cached."""

    def __init__(self, graph: Graph):
        self.num_nodes = graph.num_nodes
        # DGL materialises both compressed formats for kernel selection.
        self.csr = graph.adjacency_csr()
        self.csc = graph.adjacency_csc()
        self.in_degrees = graph.in_degrees()
        self.out_degrees = graph.out_degrees()
        self._normalized: Optional[CSRMatrix] = None
        self._mean: Optional[CSRMatrix] = None
        self._graph = graph

    def normalized(self) -> CSRMatrix:
        """``D^-1/2 (A+I) D^-1/2`` (GraphConv norm='both'), cached."""
        if self._normalized is None:
            self._normalized = normalized_adjacency(self._graph)
        return self._normalized

    def mean_adjacency(self) -> CSRMatrix:
        """Row-normalised ``A-hat`` realising mean over N(v)+v, cached."""
        if self._mean is None:
            self._mean = mean_adjacency_matrix(self._graph)
        return self._mean

    def plain(self) -> CSRMatrix:
        """The raw adjacency (GIN's unnormalised sum)."""
        return self.csr


def _lower_dgl(spec: PipelineSpec, reference) -> ExecutionPlan:
    """Lower one DGL-style pipeline to the plan IR.

    The up-front multi-format graph object is a per-run ``dgl_graph``
    Normalize op (DGL pays that materialisation on every pipeline run);
    the conv-specific cached structure is derived from it once, then
    every layer is a fused SpMM followed by the dense transform.
    """
    if spec.model not in ("gcn", "gin", "sage", "sag"):
        raise BackendError(f"DGL backend has no conv for {spec.model!r}")
    builder = PlanBuilder(model=spec.model, flavor="dgl")
    x = builder.input("X", fmt="dense")
    dgl_graph, = builder.normalize("dgl_graph", outputs=(("graph", "obj"),))
    if spec.model == "gcn":
        structure, = builder.normalize(
            "dgl_normalized", outputs=(("normalized", "csr"),),
            inputs=(dgl_graph,))
    elif spec.model == "gin":
        structure, = builder.normalize(
            "dgl_plain", outputs=(("plain", "csr"),), inputs=(dgl_graph,))
    else:
        structure, = builder.normalize(
            "dgl_mean_adjacency", outputs=(("mean", "csr"),),
            inputs=(dgl_graph,))
    for layer in range(spec.num_layers):
        params = reference.weights[layer]
        tag = f"{spec.model}-l{layer}"
        if spec.model == "gcn":
            weight = builder.constant(params["W"], name=f"l{layer}.W")
            bias = builder.constant(params["b"], name=f"l{layer}.b")
            propagated = builder.spmm(structure, x, tag=tag)
            x = builder.sgemm(propagated, weight, bias=bias, tag=tag)
        elif spec.model == "gin":
            w1 = builder.constant(params["W1"], name=f"l{layer}.W1")
            b1 = builder.constant(params["b1"], name=f"l{layer}.b1")
            w2 = builder.constant(params["W2"], name=f"l{layer}.W2")
            b2 = builder.constant(params["b2"], name=f"l{layer}.b2")
            agg = builder.spmm(structure, x, tag=tag)
            combined = builder.elementwise("combine", x, agg,
                                           alpha=reference.epsilon)
            hidden = builder.activation(
                builder.sgemm(combined, w1, bias=b1, tag=tag), "relu")
            x = builder.sgemm(hidden, w2, bias=b2, tag=tag)
        else:  # sage / sag
            w1 = builder.constant(params["W1"], name=f"l{layer}.W1")
            w2 = builder.constant(params["W2"], name=f"l{layer}.W2")
            bias = builder.constant(params["b"], name=f"l{layer}.b")
            mean_neigh = builder.spmm(structure, x, tag=tag)
            self_part = builder.sgemm(x, w1, tag=tag)
            neigh_part = builder.sgemm(mean_neigh, w2, bias=bias, tag=tag)
            x = builder.elementwise("add", self_part, neigh_part)
        if layer < spec.num_layers - 1:
            x = builder.activation(x, spec.activation)
    return builder.build(x, layer_formats=("SpMM",) * spec.num_layers)


class _DGLLikePipeline(BuiltPipeline):
    def __init__(self, spec: PipelineSpec, graph: Graph, fuse: bool):
        super().__init__("DGL", spec, graph)
        # Reference weights shared with the other backends.
        self._reference = build_model(
            spec.model, in_features=graph.num_features, hidden=spec.hidden,
            out_features=spec.out_features, num_layers=spec.num_layers,
            compute_model="MP", activation=spec.activation, seed=spec.seed,
        )
        self.plan = cached_plan(graph,
                                lambda: _lower_dgl(spec, self._reference),
                                fuse=fuse)
        self._executor = PlanExecutor()

    def run(self, features: Optional[np.ndarray] = None) -> np.ndarray:
        return self._executor.run(self.plan, self.graph,
                                  {"X": self.input_features(features)})


class DGLLikeBackend(Backend):
    """Deep-Graph-Library-style execution (SpMM computational model)."""

    name = "DGL"
    supported_compute_models = ("SpMM",)

    def build(self, spec: PipelineSpec, graph: Graph,
              fuse: bool = True) -> BuiltPipeline:
        # DGL accepts every model here (its convs are all SpMM-realised);
        # the spec's compute_model is interpreted rather than enforced,
        # because the paper runs DGL on GCN/GIN/SAG alike.
        return _DGLLikePipeline(spec, graph, fuse)

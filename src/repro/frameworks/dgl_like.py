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

The layer math is the model zoo's own SpMM lowering
(:meth:`~repro.core.models.GNNModel.lower_layer`); this backend only
supplies its structure (:data:`_STRUCTURES`).  The up-front graph-object
materialisation is one per-run ``dgl_graph`` Normalize op that hands
every layer the conv's cached structure (``normalized`` / ``plain`` /
``mean_adjacency``), so each conv is one SpMM plus the dense SGEMM
transform (GIN adds its ``(1 + eps) h`` combine, as DGL's ``GINConv``
does).
"""

from __future__ import annotations

from repro.core.models.sage import mean_adjacency_matrix
from repro.errors import BackendError
from repro.frameworks.base import Backend, BuiltPipeline, PipelineSpec
from repro.graph import Graph, normalized_adjacency
from repro.graph.formats import CSRMatrix
from repro.plan import cached_plan

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
        self._graph = graph

    def normalized(self) -> CSRMatrix:
        """``D^-1/2 (A+I) D^-1/2`` (GraphConv norm='both')."""
        return normalized_adjacency(self._graph)

    def mean_adjacency(self) -> CSRMatrix:
        """Row-normalised ``A-hat`` realising mean over N(v)+v."""
        return mean_adjacency_matrix(self._graph)

    def plain(self) -> CSRMatrix:
        """The raw adjacency (GIN's unnormalised sum)."""
        return self.csr


#: Model -> ``(DGLGraphLike structure its conv aggregates over, the
#: state key the model's SpMM lower_layer reads it as)``.
_STRUCTURES = {
    "gcn": ("normalized", "propagation"),
    "gin": ("plain", "adjacency"),
    "sage": ("mean_adjacency", "mean_adjacency"),
}


def _structure_source(structure: str, key: str):
    """The ``prepare`` hook of :meth:`~repro.core.models.GNNModel.lower`
    for DGL: one per-run ``dgl_graph`` Normalize builds the graph object
    and hands every layer its cached ``structure``."""
    state = {}

    def prepare(builder, fmt, layer):
        if layer == 0:
            state[key], = builder.normalize(
                "dgl_graph", outputs=((key, "csr"),),
                params={"structure": structure})
        return state

    return prepare


class _DGLLikePipeline(BuiltPipeline):
    def __init__(self, spec: PipelineSpec, graph: Graph, fuse: bool):
        super().__init__("DGL", spec, graph)
        # Reference weights shared with the other backends.
        reference = spec.zoo_model(graph, "MP")
        structure = _STRUCTURES.get(reference.name)
        if structure is None:
            raise BackendError(f"DGL backend has no conv for {spec.model!r}")
        formats = ("SpMM",) * reference.num_layers
        self.plan = cached_plan(
            graph, lambda: reference.lower(
                formats, flavor="dgl", prepare=_structure_source(*structure)),
            fuse=fuse)


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

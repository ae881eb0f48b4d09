"""Graph substrate: storage formats, the Graph object, and transforms.

Public surface:

* :class:`~repro.graph.graph.Graph` — attributed graph (edge index + features)
* :class:`~repro.graph.batch.BatchedGraph` — a set of graphs packed into one
  block-diagonal workload (the substrate of batched multi-graph plans)
* :class:`~repro.graph.formats.COOMatrix` / :class:`~repro.graph.formats.CSRMatrix`
  / :class:`~repro.graph.formats.CSCMatrix` / :class:`~repro.graph.formats.DenseMatrix`
* :func:`~repro.graph.convert.convert` and edge-index bridges
* structural ops: self-loops and normalisation
"""

from repro.graph.formats import COOMatrix, CSCMatrix, CSRMatrix, DenseMatrix, SparseMatrix
from repro.graph.graph import Graph
from repro.graph.batch import BatchedGraph
from repro.graph.convert import (
    FORMATS,
    convert,
    coo_to_edge_index,
    csr_to_edge_index,
    dense_to_edge_index,
    edge_index_to_coo,
    edge_index_to_csr,
)
from repro.graph.ops import (
    add_self_loops,
    gcn_edge_weights,
    normalized_adjacency,
    symmetric_normalization,
)
from repro.graph.validate import validate_graph

__all__ = [
    "BatchedGraph",
    "COOMatrix",
    "CSCMatrix",
    "CSRMatrix",
    "DenseMatrix",
    "SparseMatrix",
    "Graph",
    "FORMATS",
    "convert",
    "coo_to_edge_index",
    "csr_to_edge_index",
    "dense_to_edge_index",
    "edge_index_to_coo",
    "edge_index_to_csr",
    "add_self_loops",
    "gcn_edge_weights",
    "normalized_adjacency",
    "symmetric_normalization",
    "validate_graph",
]

"""Structural graph transforms used while assembling GNN pipelines.

These are the preprocessing steps the paper's Data Loader performs before
inference: inserting self-loops (GCN's ``A-hat = A + I``) and symmetric
degree normalisation (``D^-1/2 A-hat D^-1/2``).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.errors import GraphFormatError
from repro.graph.formats import CSRMatrix
from repro.graph.graph import Graph

__all__ = [
    "add_self_loops",
    "self_loop_adjacency_csr",
    "symmetric_normalization",
    "normalized_adjacency",
    "gcn_edge_weights",
]


def add_self_loops(graph: Graph) -> Graph:
    """Append one ``v -> v`` edge for every node that lacks one.

    Matches PyG's ``add_remaining_self_loops``: nodes that already carry a
    self-loop are left untouched, new self-loop weights default to 1.
    Built once per graph (:meth:`Graph.structure`), so the structures
    derived from the augmented graph are resident with it.
    """
    return graph.structure("add_self_loops", lambda: _add_self_loops(graph))


def _add_self_loops(graph: Graph) -> Graph:
    has_loop = np.zeros(graph.num_nodes, dtype=bool)
    loops = graph.src == graph.dst
    has_loop[graph.src[loops]] = True
    missing = np.nonzero(~has_loop)[0]
    loop_edges = np.vstack([missing, missing])
    edge_index = np.hstack([graph.edge_index, loop_edges])
    edge_weight = None
    if graph.edge_weight is not None:
        edge_weight = np.concatenate(
            [graph.edge_weight, np.ones(missing.shape[0], dtype=np.float32)]
        )
    return Graph(edge_index, features=graph.stored_features,
                 num_nodes=graph.num_nodes, edge_weight=edge_weight,
                 name=graph.name)


def self_loop_adjacency_csr(graph: Graph) -> CSRMatrix:
    """``A + I`` in CSR form (row = destination), built once per graph."""
    return graph.structure(
        "self_loop_adjacency_csr",
        lambda: add_self_loops(graph).adjacency_csr())


def symmetric_normalization(adjacency: CSRMatrix) -> CSRMatrix:
    """Compute ``D^-1/2 A D^-1/2`` for a CSR adjacency matrix.

    ``D`` is the diagonal row-sum matrix of ``A`` (paper Eq. 2).  Rows or
    columns with zero degree scale by zero, matching PyG's convention of
    masking infinite inverse square roots.
    """
    if adjacency.shape[0] != adjacency.shape[1]:
        raise GraphFormatError(
            f"normalisation requires a square matrix, got {adjacency.shape}"
        )
    degree = np.zeros(adjacency.shape[0], dtype=np.float64)
    rows = adjacency.expand_rows()
    np.add.at(degree, rows, adjacency.data.astype(np.float64))
    inv_sqrt = np.zeros_like(degree)
    positive = degree > 0
    inv_sqrt[positive] = 1.0 / np.sqrt(degree[positive])
    scaled = (
        adjacency.data * inv_sqrt[rows] * inv_sqrt[adjacency.indices]
    ).astype(np.float32)
    return CSRMatrix(adjacency.indptr, adjacency.indices, scaled,
                     shape=adjacency.shape)


def normalized_adjacency(graph: Graph, self_loops: bool = True) -> CSRMatrix:
    """Build the GCN propagation matrix ``D^-1/2 (A + I) D^-1/2``."""
    prepared = add_self_loops(graph) if self_loops else graph
    return symmetric_normalization(prepared.adjacency_csr())


def gcn_edge_weights(graph: Graph) -> Tuple[np.ndarray, np.ndarray]:
    """Per-edge GCN normalisation ``1/sqrt(du*dv)`` for the MP path.

    Returns ``(edge_index, weights)`` for the self-loop-augmented graph:
    the weight of edge ``u -> v`` is ``1/sqrt(deg(u) * deg(v))`` with
    degrees counted after self-loop insertion (paper Eq. 1).  Built once
    per graph (:meth:`Graph.structure`).
    """
    return graph.structure("gcn_edge_weights",
                           lambda: _gcn_edge_weights(graph))


def _gcn_edge_weights(graph: Graph) -> Tuple[np.ndarray, np.ndarray]:
    looped = add_self_loops(graph)
    values = looped.edge_values().astype(np.float64)
    degree = np.zeros(looped.num_nodes, dtype=np.float64)
    np.add.at(degree, looped.dst, values)
    inv_sqrt = np.zeros_like(degree)
    positive = degree > 0
    inv_sqrt[positive] = 1.0 / np.sqrt(degree[positive])
    weights = (values * inv_sqrt[looped.src] * inv_sqrt[looped.dst]).astype(np.float32)
    return looped.edge_index, weights


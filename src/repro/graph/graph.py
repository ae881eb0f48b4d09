"""The :class:`Graph` value object used throughout the suite.

A graph workload, in the paper's terms, is connectivity information (an
edge index in COO form) plus content information (a node feature matrix
``X`` of shape ``[|V|, f]``).  The data loader produces :class:`Graph`
instances; models and kernels consume them.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import GraphFormatError
from repro.graph.formats import COOMatrix, CSRMatrix, CSCMatrix, DenseMatrix

__all__ = ["Graph"]


def _freeze(value) -> None:
    """Make every array reachable from a memoised structure read-only."""
    if isinstance(value, np.ndarray):
        value.setflags(write=False)
    elif isinstance(value, tuple):
        for item in value:
            _freeze(item)
    elif isinstance(value, Graph):
        _freeze((value.edge_index, value.edge_weight))
    elif isinstance(value, CSRMatrix):
        _freeze((value.indptr, value.indices, value.data))


class Graph:
    """An attributed directed graph.

    Parameters
    ----------
    edge_index:
        Integer array of shape ``(2, E)``; ``edge_index[0]`` holds source
        node ids, ``edge_index[1]`` destination node ids.  This is the COO
        convention PyG uses and the paper's Fig. 2 labels ``edgeIndex``.
    features:
        Optional float matrix of shape ``(num_nodes, f)`` — the paper's
        feature matrix ``X``.
    num_nodes:
        Node count.  Required when ``features`` is absent and the edge
        index does not reach every node.
    edge_weight:
        Optional per-edge float weights (defaults to unweighted).
    name:
        Human-readable workload name (e.g. ``"cora"``), carried through to
        benchmark reports.
    """

    def __init__(self, edge_index, features=None, num_nodes: Optional[int] = None,
                 edge_weight=None, name: str = ""):
        edge_index = np.asarray(edge_index)
        if edge_index.ndim != 2 or edge_index.shape[0] != 2:
            raise GraphFormatError(
                f"edge_index must have shape (2, E), got {edge_index.shape}"
            )
        if edge_index.size and not np.issubdtype(edge_index.dtype, np.integer):
            raise GraphFormatError("edge_index must be an integer array")
        self.edge_index = edge_index.astype(np.int64, copy=False)

        if features is not None:
            features = np.asarray(features, dtype=np.float32)
            if features.ndim != 2:
                raise GraphFormatError(
                    f"features must have shape (num_nodes, f), got {features.shape}"
                )
        self.features = features

        inferred = int(self.edge_index.max()) + 1 if self.edge_index.size else 0
        if num_nodes is None:
            num_nodes = features.shape[0] if features is not None else inferred
        num_nodes = int(num_nodes)
        if num_nodes < inferred:
            raise GraphFormatError(
                f"num_nodes={num_nodes} but edge_index references node {inferred - 1}"
            )
        if features is not None and features.shape[0] != num_nodes:
            raise GraphFormatError(
                f"features has {features.shape[0]} rows but num_nodes={num_nodes}"
            )
        if self.edge_index.size and int(self.edge_index.min()) < 0:
            raise GraphFormatError("edge_index contains negative node ids")
        self.num_nodes = num_nodes

        if edge_weight is not None:
            edge_weight = np.asarray(edge_weight, dtype=np.float32)
            if edge_weight.shape != (self.num_edges,):
                raise GraphFormatError(
                    f"edge_weight must have shape ({self.num_edges},), "
                    f"got {edge_weight.shape}"
                )
        self.edge_weight = edge_weight
        self.name = name
        #: Structures derived from ``(edge_index, edge_weight,
        #: num_nodes)`` alone — see :meth:`structure`.
        self._structures: dict = {}

    # -- basic accessors ---------------------------------------------------
    @property
    def num_edges(self) -> int:
        """Number of directed edges."""
        return int(self.edge_index.shape[1])

    @property
    def num_features(self) -> int:
        """Feature length ``f`` (0 when the graph carries no features)."""
        return int(self.features.shape[1]) if self.features is not None else 0

    @property
    def src(self) -> np.ndarray:
        """Source node id per edge."""
        return self.edge_index[0]

    @property
    def dst(self) -> np.ndarray:
        """Destination node id per edge."""
        return self.edge_index[1]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Graph(name={self.name!r}, num_nodes={self.num_nodes}, "
            f"num_edges={self.num_edges}, num_features={self.num_features})"
        )

    # -- derived structure ---------------------------------------------------
    def structure(self, key, build):
        """The structure memoised under ``key``, built on first use.

        The memo is for pure functions of ``(edge_index, edge_weight,
        num_nodes)`` — degrees, the self-loop-augmented edge list,
        normalised aggregation matrices, the destination-major
        reduction structure — which every run over this graph would
        otherwise re-derive.  ``key`` names the function and its
        parameters and never captures features.  The graph owns the
        memo, so the structures die with it; a graph is a value object
        (its edge arrays are not to be written after construction), and
        every array handed out is read-only, so an in-place write
        raises instead of corrupting later runs.
        """
        try:
            return self._structures[key]
        except KeyError:
            value = self._structures[key] = build()
            _freeze(value)
            return value

    def in_degrees(self) -> np.ndarray:
        """In-degree of every node (memoised, read-only)."""
        return self.structure("in_degrees", lambda: np.bincount(
            self.dst, minlength=self.num_nodes))

    def out_degrees(self) -> np.ndarray:
        """Out-degree of every node."""
        return np.bincount(self.src, minlength=self.num_nodes)

    def degrees(self) -> np.ndarray:
        """Total degree (in + out) of every node."""
        return self.in_degrees() + self.out_degrees()

    def has_self_loops(self) -> bool:
        """Whether any edge connects a node to itself."""
        return bool(np.any(self.src == self.dst))

    def edge_values(self) -> np.ndarray:
        """Per-edge weights, defaulting to ones for unweighted graphs."""
        if self.edge_weight is not None:
            return self.edge_weight
        return np.ones(self.num_edges, dtype=np.float32)

    # -- format exports ------------------------------------------------------
    def adjacency_coo(self) -> COOMatrix:
        """Adjacency matrix in COO form; ``A[dst, src] = w``.

        Row = destination so that ``A @ X`` aggregates along in-edges,
        matching the message-passing direction used by Eq. (2)/(4).
        """
        return COOMatrix(self.dst, self.src, self.edge_values(),
                         shape=(self.num_nodes, self.num_nodes))

    def adjacency_csr(self) -> CSRMatrix:
        """Adjacency matrix in CSR form (row = destination node)."""
        return self.adjacency_coo().to_csr()

    def adjacency_csc(self) -> CSCMatrix:
        """Adjacency matrix in CSC form (column = source node)."""
        return self.adjacency_coo().to_csc()

    def adjacency_dense(self) -> DenseMatrix:
        """Dense adjacency matrix; only sensible for small graphs."""
        return self.adjacency_coo().to_dense()

    def feature_matrix(self) -> DenseMatrix:
        """The feature matrix ``X`` as a :class:`DenseMatrix`."""
        if self.features is None:
            raise GraphFormatError(f"graph {self.name!r} carries no features")
        return DenseMatrix(self.features)

    # -- transforms ------------------------------------------------------------
    def with_features(self, features) -> "Graph":
        """Return a copy of this graph carrying ``features``."""
        return Graph(self.edge_index, features=features, num_nodes=self.num_nodes,
                     edge_weight=self.edge_weight, name=self.name)

    def copy(self) -> "Graph":
        """Deep copy (arrays included)."""
        return Graph(
            self.edge_index.copy(),
            features=None if self.features is None else self.features.copy(),
            num_nodes=self.num_nodes,
            edge_weight=None if self.edge_weight is None else self.edge_weight.copy(),
            name=self.name,
        )

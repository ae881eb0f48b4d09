"""The :class:`Graph` value object used throughout the suite.

A graph workload, in the paper's terms, is connectivity information (an
edge index in COO form) plus content information (a node feature matrix
``X`` of shape ``[|V|, f]``).  The data loader produces :class:`Graph`
instances; models and kernels consume them.

``X`` is kept in one of the paper's formats (Section II-D): as the
row-sparse CSR it was generated as when it holds at most one stored
entry per :data:`ROW_SPARSE_STRIDE` (the bag-of-words citation
datasets), dense otherwise.  :attr:`Graph.stored_features` is that
form, the one a run binds; :attr:`Graph.features` is always a dense
array, for a row-sparse ``X`` a read-only view built on first read.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import scipy.sparse as _sp

from repro.errors import GraphFormatError
from repro.graph.formats import COOMatrix, CSRMatrix, CSCMatrix

__all__ = ["Graph", "ROW_SPARSE_STRIDE", "row_sparse_enough"]

#: A feature matrix is kept row-sparse only at one stored entry per this
#: many or fewer (``ROW_SPARSE_STRIDE * nnz <= n * k``): at most one
#: useful float per 64-byte line of the dense operand.  Measured
#: no-regret against the dense product at citation-dataset shapes: at
#: this density the CSR product takes 0.29-0.46 of the BLAS time for 16
#: and 64 output columns on one BLAS thread, and the crossover sits
#: between 10 % and 25 % (docs/architecture.md, "Execution").
ROW_SPARSE_STRIDE = 16

#: Rows of the dense matrix are scanned this many bytes at a time, so
#: the boolean mask never adds an ``n x k`` transient and a dense
#: matrix is declined after its first megabyte (as fast to build as
#: 4 MB blocks at citation shapes, slower below 256 KB).
_SCAN_BLOCK_BYTES = 1024 * 1024


def row_sparse_enough(nnz: int, n: int, k: int) -> bool:
    """Whether ``nnz`` stored entries keep an ``[n, k]`` matrix
    row-sparse: ``ROW_SPARSE_STRIDE * nnz <= n * k``.  The one density
    rule, for the feature matrix and for the aggregate of it a
    narrowing ``sgemm`` reads (:class:`repro.plan.PlanExecutor`)."""
    return ROW_SPARSE_STRIDE * nnz <= n * k


def _row_sparse(features: np.ndarray) -> Optional[_sp.csr_matrix]:
    """Row-major CSR of a dense float32 matrix, or ``None`` when it is
    denser than one stored entry per :data:`ROW_SPARSE_STRIDE`.

    Stored entries are exactly the positions where ``features != 0``
    (so ``-0.0`` is absent and ``NaN`` is stored), column-ascending
    within a row, float32 values over int32 indices.  A dense matrix is
    declined after its first block.
    """
    n, k = features.shape
    step = max(1, _SCAN_BLOCK_BYTES // max(1, k * features.itemsize))
    # Counted in int64: the csr_matrix constructor picks the index
    # width from the contents, int32 unless nnz ever passes 2**31.
    indptr = np.zeros(n + 1, dtype=np.int64)
    columns = [np.zeros(0, dtype=np.int32)]
    values = [np.zeros(0, dtype=np.float32)]
    nnz = 0
    for lo in range(0, n, step):
        block = features[lo:lo + step]
        mask = block != 0
        counts = np.count_nonzero(mask, axis=1)
        nnz += int(counts.sum())
        if not row_sparse_enough(nnz, n, k):
            return None
        indptr[lo + 1:lo + 1 + counts.shape[0]] = counts
        flat = np.flatnonzero(mask)
        columns.append((flat % k).astype(np.int32))
        values.append(block.ravel()[flat])
    np.cumsum(indptr, out=indptr)
    return _sp.csr_matrix(
        (np.concatenate(values), np.concatenate(columns), indptr),
        shape=(n, k))


def _stored_form(features):
    """How a graph keeps the ``features`` it is given: ``None``; a dense
    float32 array; or, for a SciPy sparse matrix, its canonical float32
    CSR (the entries :func:`_row_sparse` stores: no duplicate, no zero,
    columns ascending) while :func:`row_sparse_enough` holds for it, its
    dense array otherwise."""
    if features is None:
        return None
    if _sp.issparse(features):
        rows = features.tocsr().astype(np.float32, copy=False)
        if not rows.has_canonical_format \
                or np.count_nonzero(rows.data) != rows.nnz:
            rows = rows.copy()
            rows.sum_duplicates()
            rows.eliminate_zeros()
        if not row_sparse_enough(rows.nnz, *rows.shape):
            return rows.toarray()
        return rows
    features = np.asarray(features, dtype=np.float32)
    if features.ndim != 2:
        raise GraphFormatError(
            f"features must have shape (num_nodes, f), got {features.shape}"
        )
    return features


def _freeze(value) -> None:
    """Make every array reachable from a memoised structure read-only.

    ``None`` (a declined structure) and scalars have nothing to freeze.
    """
    if isinstance(value, np.ndarray):
        value.setflags(write=False)
    elif isinstance(value, tuple):
        for item in value:
            _freeze(item)
    elif isinstance(value, Graph):
        _freeze((value.edge_index, value.edge_weight))
    elif isinstance(value, (CSRMatrix, _sp.csr_matrix)):
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
        feature matrix ``X`` — as a dense array or a SciPy sparse
        matrix.  A sparse one is kept as its canonical float32 CSR while
        :func:`row_sparse_enough` holds for it (the bag-of-words
        datasets are born that way) and densified otherwise; a dense
        one is kept dense.  See :attr:`stored_features`.
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

        #: Structures derived from this graph's arrays, built on first
        #: use — see :meth:`structure` and :meth:`feature_rows`.
        self._structures: dict = {}
        self.features = features
        features = self._x

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

    # -- basic accessors ---------------------------------------------------
    @property
    def features(self) -> Optional[np.ndarray]:
        """``X`` as a dense float32 array (``None`` without features).

        A graph that stores ``X`` row-sparse builds this dense view from
        the CSR on its first read, read-only, and keeps it; no native
        kernel reads it where the density rules say row-sparse, so on
        those paths it is never built.  Assigning rebinds ``X`` (dense
        or sparse, as the constructor takes it) and drops the stored
        CSR and its view.
        """
        x = self._x
        if not _sp.issparse(x):
            return x
        if self._dense is None:
            self._dense = x.toarray()
            self._dense.setflags(write=False)
        return self._dense

    @features.setter
    def features(self, value) -> None:
        self._x = _stored_form(value)
        self._dense = None

    @property
    def stored_features(self):
        """``X`` in the form this graph keeps it: the row-sparse CSR
        (which is also its :meth:`feature_rows`) or the dense array.

        What a run binds as its plan input ``X``: the executor reads the
        CSR where the rules say row-sparse and asks :attr:`features` for
        the dense view elsewhere.
        """
        return self._x

    def is_features(self, x) -> bool:
        """Whether ``x`` *is* this graph's ``X`` — its
        :attr:`stored_features` or the dense view :attr:`features` —
        rather than any other array, however equal."""
        return x is not None and (x is self._x or x is self._dense)

    @property
    def dense_view_built(self) -> bool:
        """Whether a row-sparse ``X`` has had its dense view built."""
        return self._dense is not None

    @property
    def num_edges(self) -> int:
        """Number of directed edges."""
        return int(self.edge_index.shape[1])

    @property
    def num_features(self) -> int:
        """Feature length ``f`` (0 when the graph carries no features)."""
        return int(self._x.shape[1]) if self._x is not None else 0

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
        parameters.  The one entry derived from the feature matrix,
        :meth:`feature_rows`, stores the :attr:`stored_features` it was
        built from beside the structure and is checked against it by
        identity (for a row-sparse ``X`` the two are one CSR).  The graph
        owns the memo, so the structures die with it; a graph is a
        value object (its arrays are not to be written after
        construction), and every array handed out is read-only, so an
        in-place write raises instead of corrupting later runs.
        """
        try:
            return self._structures[key]
        except KeyError:
            value = self._structures[key] = build()
            _freeze(value)
            return value

    def feature_rows(self, x) -> Optional[_sp.csr_matrix]:
        """The resident row-sparse form of ``x``, or ``None``.

        The ``rows`` operand of a first-layer ``sgemm`` and of an
        aggregation over ``X`` (``fused_gather_scatter``, ``spmm``,
        ``index_select``), returned iff ``x`` *is* this graph's ``X`` —
        :attr:`stored_features` or the dense view :attr:`features` —
        since any other array, however equal, has no resident form and
        multiplies densely.  A row-sparse ``X`` is its own form.  A
        dense one gets the memoised row-major CSR of it (see
        :func:`_row_sparse`) when it holds at most one stored entry per
        :data:`ROW_SPARSE_STRIDE`.  The first ask freezes ``X`` with the
        rest of the memo: a later in-place write raises rather than
        diverging from the structure, and a rebound :attr:`features`
        gets a structure of its own.
        """
        if not self.is_features(x):
            return None
        stored = self._x
        memo = self._structures.get("feature_rows")
        if memo is not None and memo[0] is not stored:
            del self._structures["feature_rows"]   # features were rebound
        return self.structure(
            "feature_rows",
            lambda: (stored, self._build_feature_rows(stored)))[1]

    def _build_feature_rows(self, x) -> Optional[_sp.csr_matrix]:
        """The structure :meth:`feature_rows` memoises for the stored
        ``x``: ``x`` itself when it is row-sparse."""
        return x if _sp.issparse(x) else _row_sparse(x)

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


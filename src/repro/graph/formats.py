"""Graph storage formats.

The paper (Section II-D) lists four formats a GNN workload may arrive in:
dense matrix, sparse matrix, coordinate format (COO) and compressed sparse
row (CSR).  MP-style frameworks (PyG) consume COO edge lists; SpMM-style
frameworks (DGL) consume CSR/CSC.  gSuite "includes all of these formats
... and provides utilities to transform a dataset from one format to
another".

This module implements those containers from scratch on top of NumPy
arrays.  Each container is a small, immutable-by-convention value object:

* :class:`COOMatrix`      — coordinate triplets ``(row, col, val)``
* :class:`CSRMatrix`      — compressed sparse row (``indptr/indices/data``)
* :class:`CSCMatrix`      — compressed sparse column
* :class:`DenseMatrix`    — a thin validated wrapper over a 2-D ndarray

All sparse containers share the :class:`SparseMatrix` interface: ``shape``,
``nnz``, ``to_coo()``, ``to_csr()``, ``to_csc()``, ``to_dense()`` and
``matvec``/``matmul`` products.  The conversions are vectorised NumPy;
the products run SciPy's compiled CSR routines, this reproduction's
vendor library (:meth:`CSRMatrix._vendor`), and a large sparse x dense
or dense x dense product splits its rows over the process's CPUs
(:func:`row_parallel_product`).
"""

from __future__ import annotations

import contextvars
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from typing import Callable, List, Optional, Tuple

import numpy as np
import scipy.sparse as _sp
from scipy.sparse import _sparsetools

from repro.errors import GraphFormatError

__all__ = [
    "COOMatrix",
    "CSRMatrix",
    "CSCMatrix",
    "DenseMatrix",
    "SparseMatrix",
    "ROW_SPLIT_GRAIN",
    "row_parallel_product",
]

#: Multiply-adds (stored entries, or rows x inner dimension, times
#: dense columns) every range of a row-parallel product carries at
#: least: a product under two grains runs as one serial call.  The
#: break-even sweep that sets it is in docs/architecture.md
#: ("Row-parallel vendor products").
ROW_SPLIT_GRAIN = 1 << 22

_FLOAT32 = np.dtype(np.float32)

_split_pool = None
_split_pool_lock = threading.Lock()


def _as_index_array(values, name: str) -> np.ndarray:
    """Coerce ``values`` to a 1-D int64 array, validating integrality."""
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise GraphFormatError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if arr.size and not np.issubdtype(arr.dtype, np.integer):
        raise GraphFormatError(f"{name} must be an integer array, got dtype {arr.dtype}")
    return arr.astype(np.int64, copy=False)


def _as_value_array(values, size: int) -> np.ndarray:
    """Coerce edge values to float32, defaulting to all-ones."""
    if values is None:
        return np.ones(size, dtype=np.float32)
    arr = np.asarray(values, dtype=np.float32)
    if arr.ndim != 1 or arr.shape[0] != size:
        raise GraphFormatError(
            f"values must be a 1-D array of length {size}, got shape {arr.shape}"
        )
    return arr


def _transpose_compressed(indptr: np.ndarray, indices: np.ndarray,
                          data: np.ndarray,
                          shape: Tuple[int, int]) -> Tuple[np.ndarray,
                                                           np.ndarray,
                                                           np.ndarray]:
    """CSR arrays of the transposed matrix, via one counting sort.

    Shared by ``CSRMatrix.to_csc`` and ``CSCMatrix.to_csr`` so neither
    round-trips through COO: the new ``indptr`` is the column histogram
    cumsum, and a stable argsort of the column ids orders entries by
    (column, original row) exactly as the COO-based path did —
    duplicates preserved.
    """
    rows, cols = shape
    counts = np.bincount(indices, minlength=cols)
    t_indptr = np.zeros(cols + 1, dtype=np.int64)
    np.cumsum(counts, out=t_indptr[1:])
    order = np.argsort(indices, kind="stable")
    row_ids = np.repeat(np.arange(rows, dtype=np.int64), np.diff(indptr))
    return t_indptr, row_ids[order], data[order]


def _validate_shape(shape) -> Tuple[int, int]:
    try:
        rows, cols = shape
    except (TypeError, ValueError) as exc:
        raise GraphFormatError(f"shape must be a pair, got {shape!r}") from exc
    rows, cols = int(rows), int(cols)
    if rows < 0 or cols < 0:
        raise GraphFormatError(f"shape must be non-negative, got {shape!r}")
    return rows, cols


class SparseMatrix:
    """Common interface shared by the sparse containers.

    Subclasses must expose ``shape`` and ``nnz`` attributes and implement
    the conversion methods.  Arithmetic defaults route through CSR, which
    carries the efficient row-wise products.
    """

    shape: Tuple[int, int]
    nnz: int

    def to_coo(self) -> "COOMatrix":
        raise NotImplementedError

    def to_csr(self) -> "CSRMatrix":
        raise NotImplementedError

    def to_csc(self) -> "CSCMatrix":
        raise NotImplementedError

    def to_dense(self) -> "DenseMatrix":
        rows, cols = self.shape
        out = np.zeros((rows, cols), dtype=np.float32)
        coo = self.to_coo()
        # Accumulate duplicates just as a summing assembly would.
        np.add.at(out, (coo.row, coo.col), coo.val)
        return DenseMatrix(out)

    # -- products ---------------------------------------------------------
    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Sparse matrix-vector product ``A @ x``."""
        return self.to_csr().matvec(x)

    def matmul(self, x: np.ndarray) -> np.ndarray:
        """Sparse matrix-dense matrix product ``A @ X``."""
        return self.to_csr().matmul(x)

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return self.matmul(np.atleast_2d(x)) if np.ndim(x) > 1 else self.matvec(x)

    @property
    def density(self) -> float:
        """Fraction of stored entries relative to the full matrix."""
        rows, cols = self.shape
        cells = rows * cols
        return float(self.nnz) / cells if cells else 0.0


class COOMatrix(SparseMatrix):
    """Coordinate-format sparse matrix.

    Parameters
    ----------
    row, col:
        Integer arrays of equal length holding the coordinates of stored
        entries.  Duplicates are allowed (they sum on conversion), matching
        the behaviour of edge lists with parallel edges.
    val:
        Optional float array of entry values; defaults to ones, which is
        the unweighted-adjacency convention used throughout the paper.
    shape:
        Matrix dimensions.  If omitted it is inferred as
        ``(max(row)+1, max(col)+1)``.
    """

    def __init__(self, row, col, val=None, shape=None):
        self.row = _as_index_array(row, "row")
        self.col = _as_index_array(col, "col")
        if self.row.shape[0] != self.col.shape[0]:
            raise GraphFormatError(
                f"row and col must have equal length, got {self.row.shape[0]} "
                f"and {self.col.shape[0]}"
            )
        self.val = _as_value_array(val, self.row.shape[0])
        if shape is None:
            rows = int(self.row.max()) + 1 if self.row.size else 0
            cols = int(self.col.max()) + 1 if self.col.size else 0
            self.shape = (rows, cols)
        else:
            self.shape = _validate_shape(shape)
            if self.row.size:
                if int(self.row.max()) >= self.shape[0] or int(self.row.min()) < 0:
                    raise GraphFormatError("row indices out of bounds for shape")
                if int(self.col.max()) >= self.shape[1] or int(self.col.min()) < 0:
                    raise GraphFormatError("col indices out of bounds for shape")
        self.nnz = int(self.row.shape[0])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"COOMatrix(shape={self.shape}, nnz={self.nnz})"

    def to_coo(self) -> "COOMatrix":
        return self

    def to_csr(self) -> "CSRMatrix":
        rows, cols = self.shape
        order = np.argsort(self.row, kind="stable")
        indptr = np.zeros(rows + 1, dtype=np.int64)
        np.cumsum(np.bincount(self.row, minlength=rows), out=indptr[1:])
        return CSRMatrix(indptr, self.col[order], self.val[order], shape=self.shape)

    def to_csc(self) -> "CSCMatrix":
        return self.transpose().to_csr().transpose_view()

    def transpose(self) -> "COOMatrix":
        """Return the transposed matrix (rows and columns swapped)."""
        return COOMatrix(self.col, self.row, self.val, shape=(self.shape[1], self.shape[0]))

    def coalesce(self) -> "COOMatrix":
        """Merge duplicate coordinates by summing their values.

        The result is sorted in row-major order, matching what PyG's
        ``coalesce`` utility produces for edge lists.
        """
        if self.nnz == 0:
            return self
        keys = self.row * np.int64(self.shape[1]) + self.col
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        uniq, first = np.unique(keys, return_index=True)
        summed = np.add.reduceat(self.val[order], first) if uniq.size else self.val[:0]
        rows = (uniq // self.shape[1]).astype(np.int64)
        cols = (uniq % self.shape[1]).astype(np.int64)
        return COOMatrix(rows, cols, summed, shape=self.shape)


class CSRMatrix(SparseMatrix):
    """Compressed sparse row matrix.

    ``indptr`` has length ``rows + 1``; row ``i`` owns the slice
    ``indices[indptr[i]:indptr[i+1]]``.  Construction validates monotonic
    ``indptr`` and in-range ``indices`` so downstream kernels can index
    without bounds checks.
    """

    def __init__(self, indptr, indices, data=None, shape=None):
        self.indptr = _as_index_array(indptr, "indptr")
        self.indices = _as_index_array(indices, "indices")
        if self.indptr.size == 0:
            raise GraphFormatError("indptr must have at least one element")
        if shape is None:
            rows = self.indptr.shape[0] - 1
            cols = int(self.indices.max()) + 1 if self.indices.size else 0
            self.shape = (rows, cols)
        else:
            self.shape = _validate_shape(shape)
            if self.indptr.shape[0] != self.shape[0] + 1:
                raise GraphFormatError(
                    f"indptr length {self.indptr.shape[0]} does not match "
                    f"{self.shape[0]} rows"
                )
        if self.indptr[0] != 0:
            raise GraphFormatError("indptr must start at zero")
        if np.any(np.diff(self.indptr) < 0):
            raise GraphFormatError("indptr must be non-decreasing")
        if int(self.indptr[-1]) != self.indices.shape[0]:
            raise GraphFormatError(
                f"indptr terminates at {int(self.indptr[-1])} but there are "
                f"{self.indices.shape[0]} indices"
            )
        if self.indices.size:
            if int(self.indices.min()) < 0 or int(self.indices.max()) >= self.shape[1]:
                raise GraphFormatError("column indices out of bounds for shape")
        self.data = _as_value_array(data, self.indices.shape[0])
        self.nnz = int(self.indices.shape[0])
        self._vendor_cache = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CSRMatrix(shape={self.shape}, nnz={self.nnz})"

    # -- conversions ------------------------------------------------------
    def row_lengths(self) -> np.ndarray:
        """Number of stored entries per row (the out-degree vector)."""
        return np.diff(self.indptr)

    def expand_rows(self) -> np.ndarray:
        """Expand ``indptr`` back to an explicit per-entry row array."""
        return np.repeat(
            np.arange(self.shape[0], dtype=np.int64), self.row_lengths()
        )

    def to_coo(self) -> COOMatrix:
        return COOMatrix(self.expand_rows(), self.indices, self.data, shape=self.shape)

    def to_csr(self) -> "CSRMatrix":
        return self

    def to_csc(self) -> "CSCMatrix":
        t_indptr, t_indices, t_data = _transpose_compressed(
            self.indptr, self.indices, self.data, self.shape)
        transposed = CSRMatrix(t_indptr, t_indices, t_data,
                               shape=(self.shape[1], self.shape[0]))
        return transposed.transpose_view()

    def transpose_view(self) -> "CSCMatrix":
        """Reinterpret this CSR matrix as the CSC form of its transpose."""
        return CSCMatrix(self.indptr, self.indices, self.data,
                         shape=(self.shape[1], self.shape[0]))

    # -- products ---------------------------------------------------------
    def _vendor(self) -> _sp.csr_matrix:
        """SciPy view of this matrix (cached — the container is
        immutable by convention).

        The paper's kernels wrap the GPU vendor libraries (cuBLAS /
        cuSPARSE); SciPy's compiled CSR routines are this reproduction's
        vendor library.
        """
        if self._vendor_cache is None:
            self._vendor_cache = _sp.csr_matrix(
                (self.data, self.indices, self.indptr), shape=self.shape)
        return self._vendor_cache

    def matvec(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float32)
        if x.shape[0] != self.shape[1]:
            raise GraphFormatError(
                f"matvec dimension mismatch: matrix has {self.shape[1]} columns, "
                f"vector has {x.shape[0]} entries"
            )
        return (self._vendor() @ x).astype(np.float32, copy=False)

    def matmul(self, x):
        """``A @ X``; a SciPy CSR ``x`` (the row-sparse form of a dense
        operand) multiplies through the sparse-sparse product, returned
        as the float32 SciPy CSR it is.  A dense ``x`` multiplies through
        :func:`row_parallel_product`: split over the process's CPUs when
        large enough, bit for bit the serial product either way."""
        if _sp.issparse(x):
            if x.shape[0] != self.shape[1]:
                raise GraphFormatError(
                    f"matmul dimension mismatch: matrix has "
                    f"{self.shape[1]} columns, operand has {x.shape[0]} rows")
            return (self._vendor() @ x).astype(np.float32, copy=False)
        x = np.asarray(x, dtype=np.float32)
        if x.ndim != 2:
            raise GraphFormatError(f"matmul expects a 2-D operand, got {x.ndim}-D")
        if x.shape[0] != self.shape[1]:
            raise GraphFormatError(
                f"matmul dimension mismatch: matrix has {self.shape[1]} columns, "
                f"operand has {x.shape[0]} rows"
            )
        return row_parallel_product(self._vendor(), x).astype(
            np.float32, copy=False)

    def spgemm(self, other: "CSRMatrix") -> "CSRMatrix":
        """Sparse x sparse product ``self @ other`` in CSR form."""
        if self.shape[1] != other.shape[0]:
            raise GraphFormatError(
                f"spgemm dimension mismatch: {self.shape} x {other.shape}"
            )
        if self.nnz == 0 or other.nnz == 0:
            return CSRMatrix(
                np.zeros(self.shape[0] + 1, dtype=np.int64),
                np.empty(0, dtype=np.int64),
                shape=(self.shape[0], other.shape[1]),
            )
        product = (self._vendor() @ other._vendor()).tocsr()
        product.sort_indices()
        return CSRMatrix(
            product.indptr.astype(np.int64),
            product.indices.astype(np.int64),
            product.data.astype(np.float32),
            shape=(self.shape[0], other.shape[1]),
        )


def row_parallel_product(a, x: np.ndarray,
                         epilogue: Optional[Callable] = None) -> np.ndarray:
    """``a @ x`` for a SciPy CSR or dense ``a`` and a dense ``x``, its
    rows split over the CPUs this process may run on.

    The rows are cut into contiguous ranges (:func:`_ranges`): at most
    one range per CPU in the affinity mask and none under
    :data:`ROW_SPLIT_GRAIN` multiply-adds.  Each range runs the vendor
    call the serial product makes, which releases the GIL, into its row
    slice of one float32 output; the ranges run on a process-wide
    thread pool made on first use.

    * A CSR ``a`` is cut at about equal stored entries, and each range
      runs SciPy's own kernel.  Every output row is still summed by one
      call in the CSR's stored order, so the result equals SciPy's
      serial ``a @ x`` bit for bit at any split.
    * A dense ``a`` is cut at equal row counts, and each range runs
      ``np.matmul(a[lo:hi], x)``: the same BLAS GEMM over fewer rows.
      OpenBLAS sums every output element over ``k`` in one order
      whatever the row count, except in its small-matrix kernel, which
      it takes at about 1 M multiply-adds and under; a range of at
      least the grain is 4x above that, and every cut measured there
      kept the serial bits (docs/architecture.md §5).

    ``epilogue(lo, hi, rows)``, when given, finishes rows ``lo:hi`` of
    the product in place (``rows`` is that slice of it) inside the
    range that computed them, or once over every row when the product
    is not split.

    A product under two grains, a single CPU, or operands the split
    does not take (:func:`_ranges`) run as the serial call.
    """
    ranges = _ranges(a, x)
    if ranges is None:
        out = np.asarray(a @ x)
        if epilogue is not None:
            epilogue(0, out.shape[0], out)
        return out
    return _split_product(a, x, ranges, epilogue)


def _ranges(a, x) -> Optional[List[Tuple[int, int]]]:
    """The row ranges a split of ``a @ x`` runs, or None for the serial
    call: the product is under two grains, only one CPU is free, or
    the operands are not a float32 CSR, or a C-contiguous float32
    ndarray, times a 2-D float32 ndarray.

    A dense ``a`` also stays serial when ``x`` has one column or shares
    memory with ``a``, and no range has fewer than two rows: NumPy
    runs a one-column or one-row product through a matrix-vector call
    and ``a @ a.T`` through ``syrk``, not through the GEMM the ranges
    run.
    """
    if type(x) is not np.ndarray or x.ndim != 2 or x.dtype != _FLOAT32:
        return None
    if _sp.issparse(a):
        # The float32 CSR products SciPy runs through csr_matvec(s).
        if not (a.format == "csr" and a.dtype == _FLOAT32
                and x.shape[0] == a.shape[1]
                and a.indices.dtype == a.indptr.dtype):
            return None
        parts = min(_cpu_count(), a.nnz * x.shape[1] // ROW_SPLIT_GRAIN)
        return _row_ranges(a.indptr, parts) if parts > 1 else None
    if not (type(a) is np.ndarray and a.ndim == 2 and a.dtype == _FLOAT32
            and x.shape[0] == a.shape[1] and x.shape[1] > 1):
        return None
    rows, inner, width = a.shape[0], a.shape[1], x.shape[1]
    if (rows * inner * width < 2 * ROW_SPLIT_GRAIN
            or not a.flags.c_contiguous or np.may_share_memory(a, x)):
        return None
    least = max(2, -(-ROW_SPLIT_GRAIN // (inner * width)))
    parts = min(_cpu_count(), rows // least)
    if parts < 2:
        return None
    return [(rows * i // parts, rows * (i + 1) // parts)
            for i in range(parts)]


def _cpu_count() -> int:
    """CPUs in this process's affinity mask."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _row_ranges(indptr: np.ndarray, parts: int) -> List[Tuple[int, int]]:
    """At most ``parts`` contiguous, non-empty row ranges ``[lo, hi)``
    covering every row, cut where the stored entries reach each
    ``1/parts`` share.  Rows are never cut, so a range may carry more
    than its share (one row holding every entry makes one range)."""
    rows = indptr.shape[0] - 1
    shares = int(indptr[-1]) * np.arange(1, parts, dtype=np.int64) // parts
    cuts = np.searchsorted(indptr, shares, side="left")
    bounds = np.unique(np.concatenate(([0], cuts, [rows])))
    return [(int(lo), int(hi)) for lo, hi in zip(bounds[:-1], bounds[1:])]


def _split_product(a, x: np.ndarray, ranges: List[Tuple[int, int]],
                   epilogue: Optional[Callable] = None) -> np.ndarray:
    """``a @ x`` computed range by range into one preallocated output,
    each range then finished by ``epilogue`` (see
    :func:`row_parallel_product`).

    A CSR range calls the kernel SciPy's ``a @ x`` calls
    (``csr_matvec`` for one column, ``csr_matvecs`` otherwise) on its
    own ``indptr`` slice; the operand is flattened once, as SciPy
    flattens it.  A dense range is ``np.matmul`` of ``a``'s row slice.
    Every range writes a basic slice (a view) of the output, and the
    caller's thread runs the first range; the others run in a copy of
    the caller's context, so its ``np.errstate`` holds in every range.
    """
    rows, width = a.shape[0], x.shape[1]
    if _sp.issparse(a):
        out = np.zeros((rows, width), dtype=np.float32)
        flat_x, flat_out = x.ravel(), out.reshape(-1)

        def product(lo: int, hi: int) -> None:
            y = flat_out[lo * width:hi * width]
            if width == 1:
                _sparsetools.csr_matvec(hi - lo, a.shape[1],
                                        a.indptr[lo:hi + 1], a.indices,
                                        a.data, flat_x, y)
            else:
                _sparsetools.csr_matvecs(hi - lo, a.shape[1], width,
                                         a.indptr[lo:hi + 1], a.indices,
                                         a.data, flat_x, y)
    else:
        out = np.empty((rows, width), dtype=np.float32)

        def product(lo: int, hi: int) -> None:
            np.matmul(a[lo:hi], x, out=out[lo:hi])

    def run(lo: int, hi: int) -> None:
        product(lo, hi)
        if epilogue is not None:
            epilogue(lo, hi, out[lo:hi])

    futures = [_pool().submit(contextvars.copy_context().run, run, lo, hi)
               for lo, hi in ranges[1:]]
    try:
        if ranges:
            run(*ranges[0])
    finally:
        wait(futures)
    for future in futures:
        future.result()
    return out


def _pool() -> ThreadPoolExecutor:
    """The process-wide pool the split products share, made on first
    use with one worker per CPU beyond the caller's own."""
    global _split_pool
    with _split_pool_lock:
        if _split_pool is None:
            _split_pool = ThreadPoolExecutor(
                max_workers=max(1, _cpu_count() - 1),
                thread_name_prefix="row-split")
        return _split_pool


class CSCMatrix(SparseMatrix):
    """Compressed sparse column matrix.

    Stored as the CSR of the transpose: ``indptr`` walks columns and
    ``indices`` holds row ids.  SpMM frameworks (DGL) aggregate along
    in-edges, which is a CSC traversal of the adjacency matrix.
    """

    def __init__(self, indptr, indices, data=None, shape=None):
        if shape is None:
            transposed = CSRMatrix(indptr, indices, data)
            shape = (transposed.shape[1], transposed.shape[0])
        else:
            shape = _validate_shape(shape)
            transposed = CSRMatrix(indptr, indices, data, shape=(shape[1], shape[0]))
        self._transposed = transposed
        self.indptr = transposed.indptr
        self.indices = transposed.indices
        self.data = transposed.data
        self.shape = shape
        self.nnz = transposed.nnz

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CSCMatrix(shape={self.shape}, nnz={self.nnz})"

    def col_lengths(self) -> np.ndarray:
        """Number of stored entries per column (the in-degree vector)."""
        return self._transposed.row_lengths()

    def to_coo(self) -> COOMatrix:
        return self._transposed.to_coo().transpose()

    def to_csr(self) -> CSRMatrix:
        t = self._transposed
        indptr, indices, data = _transpose_compressed(
            t.indptr, t.indices, t.data, t.shape)
        return CSRMatrix(indptr, indices, data, shape=self.shape)

    def to_csc(self) -> "CSCMatrix":
        return self


class DenseMatrix:
    """A validated 2-D float32 matrix.

    Exists so that dense operands flow through the same conversion API as
    the sparse containers (``to_coo``/``to_csr``/...) and so shape/dtype
    errors surface at construction rather than deep inside a kernel.
    """

    def __init__(self, array):
        arr = np.asarray(array, dtype=np.float32)
        if arr.ndim != 2:
            raise GraphFormatError(f"DenseMatrix requires a 2-D array, got {arr.ndim}-D")
        self.array = arr
        self.shape = arr.shape

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DenseMatrix(shape={self.shape})"

    @property
    def nnz(self) -> int:
        """Number of structurally non-zero entries."""
        return int(np.count_nonzero(self.array))

    def to_dense(self) -> "DenseMatrix":
        return self

    def to_coo(self) -> COOMatrix:
        row, col = np.nonzero(self.array)
        return COOMatrix(row, col, self.array[row, col], shape=self.shape)

    def to_csr(self) -> CSRMatrix:
        return self.to_coo().to_csr()

    def to_csc(self) -> CSCMatrix:
        return self.to_coo().to_csc()

    def matmul(self, x: np.ndarray) -> np.ndarray:
        return self.array @ np.asarray(x, dtype=np.float32)

    def __matmul__(self, x) -> np.ndarray:
        return self.matmul(x)


def _segment_sum(values: np.ndarray, indptr: np.ndarray, num_segments: int) -> np.ndarray:
    """Sum ``values`` over the segments delimited by ``indptr``.

    Implemented as an exclusive float64 cumulative sum differenced at the
    segment boundaries: fully vectorised across feature columns (unlike
    ``np.add.reduceat``, which degrades badly on wide 2-D arrays) and
    naturally zero for empty segments.
    """
    out_shape = (num_segments,) + values.shape[1:]
    if values.shape[0] == 0:
        return np.zeros(out_shape, dtype=np.float32)
    cumulative = np.cumsum(values, axis=0, dtype=np.float64)
    padded = np.concatenate(
        [np.zeros((1,) + values.shape[1:], dtype=np.float64), cumulative]
    )
    out = padded[indptr[1:]] - padded[indptr[:-1]]
    return out.astype(np.float32)


def _ragged_arange(counts: np.ndarray) -> np.ndarray:
    """Concatenate ``arange(c)`` for every ``c`` in ``counts`` (vectorised)."""
    counts = np.asarray(counts, dtype=np.int64)
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    ends = np.cumsum(counts)
    flat = np.arange(total, dtype=np.int64)
    return flat - np.repeat(ends - counts, counts)

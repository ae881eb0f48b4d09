"""The ``scatter`` core kernel (Table II, MP model).

"Reduces given input based-on index vector using entries" — the
aggregation step of message passing: per-edge messages land in their
destination node's accumulator under an atomic sum or mean, applied as
one product with the CSR aggregation operator.  Messages gathered
row-sparse (``index_select(..., rows=)``) reduce bit for bit as the
dense messages do.
"""

from __future__ import annotations

import time
from typing import NamedTuple, Optional

import numpy as np
import scipy.sparse as _sp

from repro.core.kernels import launch as L
from repro.core.kernels.costmodel import mix_for
from repro.errors import KernelError
from repro.graph.formats import row_parallel_product

__all__ = ["scatter", "ReductionStructure", "reduction_structure",
           "aggregation_operator", "REDUCE_OPS", "ROW_SPARSE_RATIO",
           "finite_rows", "row_sparse_ratio", "takes_row_sparse"]

#: Supported reduction operators.
REDUCE_OPS = ("sum", "mean")

#: An aggregation multiplies the resident row-sparse form of its dense
#: operand only when the dense product's multiply-adds (``nnz * k``)
#: outnumber the entries the sparse product visits (``nnz`` operator
#: entries plus the stored entries of the rows they gather) at least
#: this many times.  Fitted on the sage mean operator of cora, citeseer
#: and pubmed over widths 16-1,433 and densities 0.5-6.25 %: every
#: shape at or above 64 ran the sparse route in 0.32-1.01 of the dense
#: time, and shapes up to 63.8 still lost (cora at 96 columns and
#: 0.5 %: 1.13; docs/architecture.md, "Execution").
ROW_SPARSE_RATIO = 64


class ReductionStructure(NamedTuple):
    """Destination-major (CSR) view of one index vector.

    Slot ``n`` reduces the rows ``perm[indptr[n]:indptr[n + 1]]`` of the
    scattered operand, in that order — original edge order, because
    ``perm`` is a *stable* sort — which is the order an atomic scatter
    over the unsorted index applies them in.  A function of the index
    alone: the plan executor keeps it resident per graph
    (:meth:`repro.graph.Graph.structure`) and passes it to the kernels,
    the way a CSR framework keeps its row extents.
    """

    indptr: np.ndarray   #: ``[dim_size + 1]`` row extents into ``perm``
    perm: np.ndarray     #: ``argsort(index, kind="stable")``
    counts: np.ndarray   #: float32 ``max(rows per slot, 1)``: mean's divisor

    def check(self, rows: int, dim_size: int) -> None:
        """Refuse operands of another index length or slot count."""
        if (self.indptr.shape[0] != dim_size + 1
                or self.perm.shape[0] != rows):
            raise KernelError(
                f"reduction structure covers {self.perm.shape[0]} rows "
                f"and {self.indptr.shape[0] - 1} slots; the operands "
                f"have {rows} rows and {dim_size} slots")


def reduction_structure(index: np.ndarray,
                        dim_size: int) -> ReductionStructure:
    """Build the :class:`ReductionStructure` of ``index``.

    The one construction site: kernels called without a structure
    build theirs here too.  ``index`` must be validated (integral,
    within ``[0, dim_size)``).
    """
    counts = np.bincount(index, minlength=dim_size)
    indptr = np.zeros(dim_size + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return ReductionStructure(
        indptr, np.argsort(index, kind="stable"),
        np.maximum(counts, 1).astype(np.float32))


def aggregation_operator(structure: ReductionStructure,
                         src_index: Optional[np.ndarray],
                         scale: Optional[np.ndarray],
                         num_sources: int) -> _sp.csr_matrix:
    """The sum / mean aggregation operator over ``structure``'s index.

    A ``[dim_size, num_sources]`` CSR whose row ``n`` holds
    ``(scale[e], src_index[e])`` for the edges ``e`` reducing into slot
    ``n``, in original edge order (``structure.perm``), with ``scale``
    defaulting to ones.  ``src_index=None`` is the identity: the
    selection matrix ``M[index[i], i] = 1`` the unfused scatter applies
    to its materialised messages.  The one construction site of the
    reduction CSR: the plan executor keeps the operators of
    graph-determined indices resident (:meth:`repro.graph.Graph.
    structure`), and a kernel called without one builds it here for
    that call.
    """
    perm = structure.perm
    values = np.ones(perm.shape[0], dtype=np.float32) if scale is None \
        else np.asarray(scale, dtype=np.float32)[perm]
    columns = perm if src_index is None else np.asarray(src_index)[perm]
    return _sp.csr_matrix(
        (values, columns, structure.indptr),
        shape=(structure.indptr.shape[0] - 1, int(num_sources)))


def row_sparse_ratio(operator, rows) -> float:
    """``nnz * k / (nnz + expansion)`` of ``operator @ rows``.

    ``operator`` is an ``[m, n]`` CSR (SciPy or
    :class:`~repro.graph.formats.CSRMatrix`) and ``rows`` the row-sparse
    form of an ``[n, k]`` dense operand; the expansion is the number of
    stored entries of the rows the operator gathers.  ``0.0`` for an
    empty operator.
    """
    if operator.nnz == 0:
        return 0.0
    expansion = int(np.diff(rows.indptr)[operator.indices].sum())
    return operator.nnz * rows.shape[1] / (operator.nnz + expansion)


def takes_row_sparse(operator, rows) -> bool:
    """Whether ``operator`` multiplies ``rows`` instead of the dense
    operand: ``rows`` exists, :func:`row_sparse_ratio` reaches
    :data:`ROW_SPARSE_RATIO`, and every stored value is finite.  The
    one rule: the kernels, the plan executor and ``gsuite plan`` all
    ask it.

    Non-finite rows stay dense because SciPy's SpGEMM and its dense
    product propagate colliding NaNs differently (the product's NaN
    wins in one, the accumulator's in the other): their NaN positions
    agree, their NaN bits need not.
    """
    return rows is not None \
        and row_sparse_ratio(operator, rows) >= ROW_SPARSE_RATIO \
        and finite_rows(rows)


def finite_rows(rows) -> bool:
    """Whether every stored value of the row-sparse ``rows`` is finite."""
    return bool(np.isfinite(rows.data).all())


def _check_rows(rows, dense: np.ndarray) -> None:
    """Refuse a row-sparse operand that cannot stand for ``dense``."""
    if rows is not None and rows.shape != dense.shape:
        raise KernelError(
            f"row-sparse operand has shape {rows.shape}; the dense "
            f"operand it stands for has {dense.shape}")


def _check_operator(operator: _sp.csr_matrix, dim_size: int,
                    sources: int, edges: int) -> None:
    """Refuse an aggregation operator that cannot be this call's.

    O(1): the ``(dim_size, sources)`` shape and one stored entry per
    index element.  An operator of another index with the same geometry
    passes; the executor's memo keys are what rule that out.
    """
    if operator.shape != (dim_size, sources) or operator.nnz != edges:
        raise KernelError(
            f"aggregation operator has shape {operator.shape} and "
            f"{operator.nnz} entries; the operands need "
            f"({dim_size}, {sources}) and {edges}")


def scatter(src: np.ndarray, index: np.ndarray, dim_size: Optional[int] = None,
            reduce: str = "sum", tag: str = "",
            structure: Optional[ReductionStructure] = None,
            operator: Optional[_sp.csr_matrix] = None,
            row_sparse_out: bool = False):
    """Reduce rows of ``src`` into ``out[index[i]]`` slots.

    Parameters
    ----------
    src:
        1-D or 2-D float array of per-edge messages ``[e, f]``, or
        their row-sparse form: a SciPy CSR whose stored entries are the
        messages' non-zeros, in any float dtype — the data is cast to
        float32 as a dense ``src`` is.  It is reduced as
        ``operator @ src`` (SpGEMM), bit for bit the dense messages'
        result: the terms it skips are ``1 * ±0``, which leave every
        sum unchanged (see :func:`_csr_reduce`; one holding a NaN or an
        inf is densified first).
    index:
        1-D destination ids, one per row of ``src``.
    dim_size:
        Number of output slots ``n``; inferred as ``index.max()+1`` when
        omitted.
    reduce:
        ``"sum"`` or ``"mean"``.  Slots that receive no message are 0
        (PyG's ``scatter`` fill value for detached aggregation).
    tag:
        Optional label copied onto the emitted :class:`KernelLaunch`.
    structure:
        The :func:`reduction_structure` of ``(index, dim_size)`` when
        the caller keeps it resident; built on the spot otherwise.
    operator:
        The identity :func:`aggregation_operator` of ``structure`` for
        ``src.shape[0]`` sources, when the caller keeps it resident;
        built on the spot otherwise.
    row_sparse_out:
        Hand a row-sparse ``src``'s reduction on as the SpGEMM product
        itself (a ``[dim_size, f]`` SciPy CSR, mean already divided)
        instead of densifying it, for a consumer that reads its stored
        entries (:func:`~repro.core.kernels.sgemm.sgemm`).  A dense
        reduction is returned dense either way.

    Returns
    -------
    numpy.ndarray or scipy.sparse.csr_matrix
        Array of shape ``[dim_size, f]`` (or ``[dim_size]`` for 1-D
        src); the CSR product under ``row_sparse_out``.
    """
    if _sp.issparse(src):
        src = src.tocsr().astype(np.float32, copy=False)
    else:
        src = np.asarray(src, dtype=np.float32)
    index = np.asarray(index)
    if src.ndim not in (1, 2):
        raise KernelError(f"scatter expects 1-D or 2-D src, got {src.ndim}-D")
    if index.ndim != 1:
        raise KernelError(f"index must be 1-D, got {index.ndim}-D")
    if index.shape[0] != src.shape[0]:
        raise KernelError(
            f"index length {index.shape[0]} does not match src rows {src.shape[0]}"
        )
    if index.size and not np.issubdtype(index.dtype, np.integer):
        raise KernelError(f"index must be integral, got dtype {index.dtype}")
    if reduce not in REDUCE_OPS:
        raise KernelError(f"unknown reduce {reduce!r}; expected one of {REDUCE_OPS}")
    if index.size and int(index.min()) < 0:
        raise KernelError("index contains negative destinations")
    inferred = int(index.max()) + 1 if index.size else 0
    if dim_size is None:
        dim_size = inferred
    elif dim_size < inferred:
        raise KernelError(
            f"dim_size={dim_size} but index references slot {inferred - 1}"
        )
    if structure is not None:
        structure.check(index.shape[0], int(dim_size))
    if operator is not None:
        _check_operator(operator, int(dim_size), src.shape[0],
                        index.shape[0])

    start = time.perf_counter()
    out = _reduce(src, index, int(dim_size), reduce, structure, operator,
                  keep=row_sparse_out)
    duration = time.perf_counter() - start

    recorder = L.active_recorder()
    if recorder is not None:
        _emit(recorder, src, index, out, reduce, duration, tag)
    return out


def _reduce(source, index: np.ndarray, dim_size: int, reduce: str,
            structure: Optional[ReductionStructure] = None,
            operator: Optional[_sp.csr_matrix] = None,
            src_index: Optional[np.ndarray] = None,
            scale: Optional[np.ndarray] = None,
            rows: Optional[_sp.csr_matrix] = None,
            keep: bool = False):
    """Segmented sum / mean — semantics of an atomic GPU scatter.

    Reduces the rows of ``source`` (``source[src_index] * scale[:,
    None]`` when ``src_index`` is given, without materialising them)
    into the ``index`` slots through :func:`_csr_reduce`, over the
    destination-major ``structure`` (built here when the caller keeps
    none).  No edge or no slot is all zeros.  The compute core of both
    ``scatter`` and ``fusedGatherScatter``, which own validation and
    instrumentation.
    """
    if index.shape[0] == 0 or dim_size == 0:
        return np.zeros((dim_size,) + source.shape[1:], dtype=np.float32)
    if structure is None:
        structure = reduction_structure(
            index.astype(np.int64, copy=False), dim_size)
    return _csr_reduce(structure, source, reduce, operator, src_index,
                       scale, rows, keep)


def _csr_reduce(structure: ReductionStructure, dense: np.ndarray,
                reduce: str, operator: Optional[_sp.csr_matrix] = None,
                src_index: Optional[np.ndarray] = None,
                scale: Optional[np.ndarray] = None,
                rows: Optional[_sp.csr_matrix] = None,
                keep: bool = False):
    """Sum / mean: apply an aggregation operator to ``dense``.

    The operator's rows are already destination-major, so no COO sort
    runs, and the compiled product accumulates a row's entries in
    stored order.  A caller that holds no ``operator`` gets
    ``aggregation_operator(structure, src_index, scale,
    dense.shape[0])`` built for this call.  Mean divides by the clamped
    row counts.

    ``rows`` is the row-sparse form of ``dense``; where
    :func:`takes_row_sparse` says so the operator multiplies it
    (``operator @ rows``, SciPy's SpGEMM) and mean divides only the
    stored entries of the product.  ``dense`` may itself be row-sparse:
    as its own ``rows`` (an aggregation's source handed row-sparse) it
    is densified where the rule says dense; without ``rows`` (the
    unfused scatter's messages, gathered row-sparse by the same rule)
    it is multiplied the same way, unless it holds a NaN or an inf, for
    the reason :func:`takes_row_sparse` keeps such rows dense.  Bit for
    bit the dense result for finite operator values: both products
    start every output element from +0.0 and add its
    products in the operator's stored order, and the terms the sparse
    one skips are ``a * 0``, which leave a sum unchanged.  With
    ``keep``, a product taken row-sparse is returned as that SciPy CSR
    (the consumer reads its stored entries); a dense one stays dense.
    The dense product is :func:`~repro.graph.formats.
    row_parallel_product`, split over the process's CPUs once it is
    large enough and bit for bit the serial one at any split.
    """
    if operator is None:
        operator = aggregation_operator(structure, src_index, scale,
                                        dense.shape[0])
    if _sp.issparse(dense) and rows is None and finite_rows(dense):
        return _row_sparse_product(structure.counts, operator @ dense,
                                   reduce, keep)
    if takes_row_sparse(operator, rows):
        return _row_sparse_product(structure.counts, operator @ rows,
                                   reduce, keep)
    if _sp.issparse(dense):
        dense = dense.toarray()      # NaN bits: see takes_row_sparse
    summed = np.asarray(row_parallel_product(
        operator, dense if dense.ndim == 2 else dense[:, None]))
    if reduce == "mean":
        summed /= structure.counts[:, None]   # the product's own array
    result = summed if dense.ndim == 2 else summed[:, 0]
    return result.astype(np.float32, copy=False)


def _row_sparse_product(counts: np.ndarray, product: _sp.csr_matrix,
                        reduce: str, keep: bool = False):
    """The sum / mean of an SpGEMM ``product``: mean divides the stored
    entries by their rows' clamped ``counts``.  Dense unless ``keep``,
    when the product itself is handed on."""
    if reduce == "mean":
        product.data /= np.repeat(counts, np.diff(product.indptr))
    return product if keep else product.toarray()


def _emit(recorder: L.LaunchRecorder, src: np.ndarray, index: np.ndarray,
          out: np.ndarray, reduce: str, duration: float, tag: str) -> None:
    """Build and emit the launch record for one scatter.

    Elements are counted from the shape, so a row-sparse ``src`` (whose
    ``size`` is its stored-entry count) records the dense scatter.
    """
    elements = int(np.prod(src.shape))
    row_width = src.shape[1] if src.ndim == 2 else 1
    row_bytes = row_width * L.FLOAT_BYTES

    stride = L.sample_stride(index.size, max(1, recorder.sample_cap // max(1, row_bytes // L.LINE_BYTES + 1)))
    sampled = index[::stride]
    fraction = (sampled.size / index.size) if index.size else 1.0

    src_base, index_base, out_base = L.operand_bases(3)
    loads = np.concatenate([
        L.sequential_lines(index_base, index.size * L.FLOAT_BYTES,
                           recorder.sample_cap),
        L.sequential_lines(src_base, elements * L.FLOAT_BYTES,
                           recorder.sample_cap),
    ])
    # The atomic read-modify-write hits irregular destination rows.
    stores = L.row_lines(out_base, np.asarray(sampled, dtype=np.int64), row_bytes)

    recorder.emit(L.KernelLaunch(
        kernel="scatter",
        short_form="sc",
        model="MP",
        threads=max(1, elements),
        mix=mix_for("scatter", elements),
        loads=loads,
        stores=stores,
        flops=float(elements),
        bytes_read=float(elements * L.FLOAT_BYTES + index.size * L.FLOAT_BYTES),
        bytes_written=float(elements * L.FLOAT_BYTES),
        duration_s=duration,
        sample_fraction=fraction,
        atomic=True,
        active_lanes=min(L.WARP_SIZE, max(1, row_width)),
        tag=tag or reduce,
    ))

"""The ``scatter`` core kernel (Table II, MP model).

"Reduces given input based-on index vector using entries" — the
aggregation step of message passing: per-edge messages land in their
destination node's accumulator under an atomic reduction (sum / mean /
max / min).
"""

from __future__ import annotations

import math
import time
from typing import NamedTuple, Optional

import numpy as np
import scipy.sparse as _sp

from repro.core.kernels import launch as L
from repro.core.kernels.costmodel import mix_for
from repro.errors import KernelError

__all__ = ["scatter", "streaming_reduce", "ReductionStructure",
           "reduction_structure", "aggregation_operator", "REDUCE_OPS",
           "STREAM_BLOCK_BYTES"]

#: Supported reduction operators.
REDUCE_OPS = ("sum", "mean", "max", "min")

#: Per-block message budget of :func:`streaming_reduce`'s max / min
#: path: one destination block's gathered messages should stay
#: last-level-cache resident between the gather and its reduction.
STREAM_BLOCK_BYTES = 4 * 1024 * 1024


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


def _check_operator(operator: _sp.csr_matrix, reduce: str, dim_size: int,
                    sources: int, edges: int) -> None:
    """Refuse an aggregation operator that cannot be this call's.

    O(1): a sum / mean reduce, the ``(dim_size, sources)`` shape and
    one stored entry per index element.  An operator of another index
    with the same geometry passes; the executor's memo keys are what
    rule that out.
    """
    if reduce not in ("sum", "mean"):
        raise KernelError(
            f"an aggregation operator applies to sum / mean only, not "
            f"{reduce!r}")
    if operator.shape != (dim_size, sources) or operator.nnz != edges:
        raise KernelError(
            f"aggregation operator has shape {operator.shape} and "
            f"{operator.nnz} entries; the operands need "
            f"({dim_size}, {sources}) and {edges}")


def scatter(src: np.ndarray, index: np.ndarray, dim_size: Optional[int] = None,
            reduce: str = "sum", tag: str = "",
            structure: Optional[ReductionStructure] = None,
            operator: Optional[_sp.csr_matrix] = None) -> np.ndarray:
    """Reduce rows of ``src`` into ``out[index[i]]`` slots.

    Parameters
    ----------
    src:
        1-D or 2-D float array of per-edge messages ``[e, f]``.
    index:
        1-D destination ids, one per row of ``src``.
    dim_size:
        Number of output slots ``n``; inferred as ``index.max()+1`` when
        omitted.
    reduce:
        One of ``"sum"``, ``"mean"``, ``"max"``, ``"min"``.  Slots that
        receive no message are 0 for sum/mean and 0 for max/min (matching
        PyG's ``scatter`` fill value for detached aggregation).
    tag:
        Optional label copied onto the emitted :class:`KernelLaunch`.
    structure:
        The :func:`reduction_structure` of ``(index, dim_size)`` when
        the caller keeps it resident; built on the spot otherwise.
    operator:
        The identity :func:`aggregation_operator` of ``structure`` for
        ``src.shape[0]`` sources (sum / mean only), when the caller
        keeps it resident; built on the spot otherwise.

    Returns
    -------
    numpy.ndarray
        Array of shape ``[dim_size, f]`` (or ``[dim_size]`` for 1-D src).
    """
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
        _check_operator(operator, reduce, int(dim_size), src.shape[0],
                        index.shape[0])

    start = time.perf_counter()
    out = _reduce(src, index.astype(np.int64, copy=False), int(dim_size),
                  reduce, structure, operator)
    duration = time.perf_counter() - start

    recorder = L.active_recorder()
    if recorder is not None:
        _emit(recorder, src, index, out, reduce, duration, tag)
    return out


def _reduce(src: np.ndarray, index: np.ndarray, dim_size: int, reduce: str,
            structure: Optional[ReductionStructure] = None,
            operator: Optional[_sp.csr_matrix] = None) -> np.ndarray:
    """Segmented reduction — semantics of an atomic GPU scatter.

    Sum and mean apply the selection-matrix ``operator`` (the
    vendor-library path, mirroring how the real kernel runs on
    cuSPARSE-class primitives); max and min use a sorted segmented
    reduction.  Both read the destination-major ``structure``.
    """
    out_shape = (dim_size,) + src.shape[1:]
    out = np.zeros(out_shape, dtype=np.float32)
    if src.shape[0] == 0 or dim_size == 0:
        return out
    if structure is None:
        structure = reduction_structure(index, dim_size)
    indptr, perm, _ = structure
    if reduce in ("sum", "mean"):
        # out[n] = sum_i [index[i] == n] * src[i]  ==  M @ src with
        # M[index[i], i] = 1 — one compiled CSR product.
        return _csr_reduce(structure, src, reduce, operator)
    slots = np.flatnonzero(np.diff(indptr))
    starts = indptr[slots]
    sorted_src = src[perm]
    if reduce == "max":
        segment = np.maximum.reduceat(sorted_src, starts, axis=0)
    else:  # min
        segment = np.minimum.reduceat(sorted_src, starts, axis=0)
    out[slots] = segment.astype(np.float32, copy=False)
    return out


def _csr_reduce(structure: ReductionStructure, dense: np.ndarray,
                reduce: str, operator: Optional[_sp.csr_matrix] = None,
                src_index: Optional[np.ndarray] = None,
                scale: Optional[np.ndarray] = None) -> np.ndarray:
    """Sum / mean: apply an aggregation operator to ``dense``.

    The operator's rows are already destination-major, so no COO sort
    runs, and the compiled product accumulates a row's entries in
    stored order.  A caller that holds no ``operator`` gets
    ``aggregation_operator(structure, src_index, scale, rows)`` built
    for this call.  Mean divides by the clamped row counts.
    """
    if operator is None:
        operator = aggregation_operator(structure, src_index, scale,
                                        dense.shape[0])
    summed = np.asarray(operator @ (dense if dense.ndim == 2
                                    else dense[:, None]))
    if reduce == "mean":
        summed /= structure.counts[:, None]   # the product's own array
    result = summed if dense.ndim == 2 else summed[:, 0]
    return result.astype(np.float32, copy=False)


def streaming_reduce(source: np.ndarray, src_index: np.ndarray,
                     dst_index: np.ndarray, dim_size: int,
                     reduce: str = "sum",
                     scale: Optional[np.ndarray] = None,
                     block_bytes: int = STREAM_BLOCK_BYTES,
                     structure: Optional[ReductionStructure] = None,
                     operator: Optional[_sp.csr_matrix] = None
                     ) -> np.ndarray:
    """Gather-and-reduce without materialising the full message matrix.

    Computes exactly ``scatter(source[src_index] * scale[:, None],
    dst_index, dim_size, reduce)`` — the fused message-passing
    aggregate — for float32 operands.

    **Sum and mean** apply the :func:`aggregation_operator` of
    ``(structure, src_index, scale)`` — the caller's resident
    ``operator``, or one built here for the call, over ``structure``
    (built here too when the caller keeps none): row ``n`` holds
    ``(scale[e], src_index[e])`` for the in-edges ``e`` of ``n`` in
    original edge order, so the compiled product
    accumulates ``scale[e] * source[src_index[e]]`` in exactly the
    sequence the unfused scatter sums the materialised messages in, and
    no message is ever stored.  Bit-for-bit because the product rounds
    ``a * x`` to float32 before the add, as the materialised message
    was rounded.

    **Max and min** need the messages themselves, so they stream them
    through destination-range blocks sized to ``block_bytes``: edges
    are partitioned by destination block with one stable sort,
    preserving original edge order inside every block, and block
    outputs are disjoint row ranges placed without arithmetic.  Peak
    intermediate memory is one block instead of the whole ``[E, f]``
    matrix.

    No launch is recorded here: this is the compute core of the
    ``fusedGatherScatter`` kernel (:func:`repro.core.kernels.sparse.
    fused_gather_scatter`), which owns validation and instrumentation.
    """
    src_index = np.asarray(src_index)
    dst_index = np.asarray(dst_index).astype(np.int64, copy=False)
    width = source.shape[1] if source.ndim == 2 else 1
    out_shape = (dim_size, width) if source.ndim == 2 else (dim_size,)

    if reduce in ("sum", "mean"):
        if src_index.size == 0 or dim_size == 0:
            return np.zeros(out_shape, dtype=np.float32)
        if structure is None:
            structure = reduction_structure(dst_index, dim_size)
        return _csr_reduce(structure, np.asarray(source, dtype=np.float32),
                           reduce, operator, src_index, scale)

    total_bytes = src_index.size * width * np.dtype(np.float32).itemsize
    if total_bytes <= block_bytes or dim_size <= 1:
        messages = source[src_index]
        if scale is not None:
            messages = messages * scale[:, None] \
                if messages.ndim == 2 else messages * scale
        return _reduce(np.asarray(messages, dtype=np.float32), dst_index,
                       dim_size, reduce, structure)

    num_blocks = min(dim_size, math.ceil(total_bytes / block_bytes))
    base, extra = divmod(dim_size, num_blocks)
    starts = np.empty(num_blocks, dtype=np.int64)
    lo = 0
    for i in range(num_blocks):
        starts[i] = lo
        lo += base + (1 if i < extra else 0)
    # One stable partition of edge positions by destination block keeps
    # per-destination edge order — and therefore reduction order —
    # identical to the unfused scatter.
    block_of = np.searchsorted(starts, dst_index, side="right") - 1
    order = np.argsort(block_of, kind="stable")
    offsets = np.concatenate([
        np.zeros(1, dtype=np.int64),
        np.cumsum(np.bincount(block_of, minlength=num_blocks))])

    out = np.zeros(out_shape, dtype=np.float32)
    for k in range(num_blocks):
        lo = int(starts[k])
        hi = int(starts[k + 1]) if k + 1 < num_blocks else dim_size
        selection = order[offsets[k]:offsets[k + 1]]
        block_scale = None if scale is None else scale[selection]
        messages = source[src_index[selection]]
        if block_scale is not None:
            messages = messages * block_scale[:, None] \
                if messages.ndim == 2 else messages * block_scale
        out[lo:hi] = _reduce(np.asarray(messages, dtype=np.float32),
                             dst_index[selection] - lo, hi - lo, reduce)
    return out


def _emit(recorder: L.LaunchRecorder, src: np.ndarray, index: np.ndarray,
          out: np.ndarray, reduce: str, duration: float, tag: str) -> None:
    """Build and emit the launch record for one scatter."""
    elements = int(src.size)
    row_width = src.shape[1] if src.ndim == 2 else 1
    row_bytes = row_width * L.FLOAT_BYTES

    stride = L.sample_stride(index.size, max(1, recorder.sample_cap // max(1, row_bytes // L.LINE_BYTES + 1)))
    sampled = index[::stride]
    fraction = (sampled.size / index.size) if index.size else 1.0

    src_base = recorder.new_region()
    index_base = recorder.new_region()
    out_base = recorder.new_region()
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

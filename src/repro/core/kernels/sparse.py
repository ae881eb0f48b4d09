"""The sparse core kernels: ``spmm``, ``SpGEMM`` and the fused
message-passing aggregate ``fusedGatherScatter``.

``spmm`` multiplies a sparse adjacency (CSR) by a dense feature matrix —
the fused aggregate of DGL-style execution — with an optional epilogue
(row-broadcast bias, then activation) folded in the way ``sgemm``'s
cuBLAS-style epilogue folds its stages.  ``SpGEMM`` multiplies two
sparse matrices — the adjacency-normalisation chain of the paper's
Fig. 2 (``D^-1/2 * A * D^-1/2``).  ``fused_gather_scatter`` is the
plan-level-fusion entry point for the MP side: one launch that reduces
gathered rows straight into their destinations (one product with the
sum / mean :func:`~repro.core.kernels.scatter.aggregation_operator`)
instead of materialising the ``[E, f]`` intermediate between two
launches.  Handed the row-sparse form of their dense operand
(``rows=``), ``spmm`` and ``fused_gather_scatter`` multiply it instead
where :func:`~repro.core.kernels.scatter.takes_row_sparse` says so —
bit for bit the dense product — and,
asked (``row_sparse_out``), hand that SpGEMM product on as it is, for a
consumer that reads its stored entries
(:func:`~repro.core.kernels.sgemm.sgemm`).  Every emitter counts
elements from shapes, so the launch record is the dense kernel's.
"""

from __future__ import annotations

import time
from typing import Optional

import numpy as np
import scipy.sparse as _sp

from repro.core.kernels import launch as L
from repro.core.kernels.costmodel import EPILOGUE_FP32_PER_ELEMENT, mix_for
from repro.core.kernels.scatter import REDUCE_OPS, ReductionStructure, \
    _check_operator, _check_rows, _reduce, takes_row_sparse
from repro.errors import KernelError
from repro.graph.formats import CSRMatrix

__all__ = ["spmm", "spgemm", "fused_gather_scatter"]


def spmm(adjacency: CSRMatrix, dense: np.ndarray,
         bias: Optional[np.ndarray] = None, tag: str = "",
         activation: Optional[str] = None,
         rows: Optional[_sp.csr_matrix] = None,
         row_sparse_out: bool = False):
    """Sparse x dense product ``adjacency @ dense``, optional epilogue.

    The dense product is :meth:`CSRMatrix.matmul`'s, whose rows split
    over the process's CPUs once it is large enough
    (:func:`~repro.graph.formats.row_parallel_product`), bit for bit
    the serial product.

    Parameters
    ----------
    adjacency:
        CSR matrix ``[n, n]`` (row = destination node).
    dense:
        Float matrix ``[n, f]`` of node features, or its row-sparse form
        (a SciPy sparse matrix), which then stands for ``rows`` too and
        is densified for this call only where the rule says dense.
    bias:
        Optional length-``f`` vector added to every output row inside
        this launch (cuBLAS-epilogue style, mirroring ``sgemm``).
    tag:
        Optional label copied onto the emitted :class:`KernelLaunch`.
    activation:
        Optional epilogue activation applied to the finished output
        inside this launch, *after* the float32 cast — bit-for-bit what
        a separate bias-add + activation over the plain product would
        produce.  The launch record carries the epilogue's extra
        arithmetic and a ``replaces`` entry naming the plain spmm
        launch it stands in for.  Like ``sgemm``'s, it runs in place on
        the launch's own product array.
    rows:
        The resident row-sparse form of ``dense``
        (:meth:`repro.graph.Graph.feature_rows`), when the caller holds
        the graph.  Where :func:`~repro.core.kernels.scatter.
        takes_row_sparse` says so the product is ``adjacency @ rows``,
        bit for bit the dense product for finite adjacency values; the
        launch record is the dense product's either way.
    row_sparse_out:
        Return a product taken over ``rows`` as that SciPy CSR instead of
        densifying it, when no epilogue applies (a bias or an activation
        densifies it).  A dense product is returned dense either way.
    """
    if not isinstance(adjacency, CSRMatrix):
        raise KernelError(
            f"spmm expects a CSRMatrix, got {type(adjacency).__name__}"
        )
    if _sp.issparse(dense):
        dense = rows = dense.tocsr().astype(np.float32, copy=False)
    else:
        dense = np.asarray(dense, dtype=np.float32)
    if dense.ndim != 2:
        raise KernelError(f"spmm expects a 2-D dense operand, got {dense.ndim}-D")
    if dense.shape[0] != adjacency.shape[1]:
        raise KernelError(
            f"spmm dimension mismatch: {adjacency.shape} x {dense.shape}"
        )
    if bias is not None:
        bias = np.asarray(bias, dtype=np.float32)
        if bias.shape != (dense.shape[1],):
            raise KernelError(
                f"bias must have shape ({dense.shape[1]},), got {bias.shape}"
            )
    _check_rows(rows, dense)

    start = time.perf_counter()
    out = adjacency.matmul(
        rows if takes_row_sparse(adjacency, rows) else _dense(dense))
    if _sp.issparse(out) and not (row_sparse_out and bias is None
                                  and not activation):
        out = out.toarray()
    if bias is not None:
        out = out + bias
    out = out.astype(np.float32, copy=False)
    if activation:
        from repro.core.models.activations import get_activation
        out = get_activation(activation)(out, out=out)
    duration = time.perf_counter() - start

    recorder = L.active_recorder()
    if recorder is not None:
        _emit_spmm(recorder, adjacency, dense, out, duration, tag,
                   epilogue=activation or "")
    return out


def _dense(x):
    """``x`` as a dense array: a row-sparse operand the rule keeps dense
    (:func:`~repro.core.kernels.scatter.takes_row_sparse`) is densified
    for the call."""
    return x.toarray() if _sp.issparse(x) else x


def _emit_spmm(recorder: L.LaunchRecorder, adjacency: CSRMatrix,
               dense: np.ndarray, out, duration: float,
               tag: str, epilogue: str = "") -> None:
    nnz = adjacency.nnz
    f = dense.shape[1]
    out_elements = out.shape[0] * out.shape[1]
    row_bytes = f * L.FLOAT_BYTES
    units = float(nnz) * f

    stride = L.sample_stride(nnz, max(1, recorder.sample_cap // max(1, row_bytes // L.LINE_BYTES + 1)))
    sampled_cols = adjacency.indices[::stride]
    fraction = (sampled_cols.size / nnz) if nnz else 1.0

    structure_base, values_base, dense_base, out_base = L.operand_bases(4)
    cap = recorder.sample_cap
    loads = np.concatenate([
        L.sequential_lines(structure_base,
                           (adjacency.indptr.size + nnz) * L.FLOAT_BYTES, cap),
        L.sequential_lines(values_base, nnz * L.FLOAT_BYTES, cap),
        L.row_lines(dense_base, sampled_cols, row_bytes),
    ])
    stores = L.sequential_lines(out_base, out_elements * L.FLOAT_BYTES, cap)

    mix = mix_for("spmm", units)
    if epilogue:
        # Epilogue stages run in registers before the store (the sgemm
        # emitter's convention): arithmetic joins the mix, no traffic.
        mix.fp32 += EPILOGUE_FP32_PER_ELEMENT * out_elements
    recorder.emit(L.KernelLaunch(
        kernel="spmm",
        short_form="sp",
        model="SpMM",
        threads=max(1, out_elements),
        mix=mix,
        loads=loads,
        stores=stores,
        flops=2.0 * units + (float(out_elements) if epilogue else 0.0),
        bytes_read=float(L.FLOAT_BYTES) * (nnz * (2 + f) + adjacency.indptr.size),
        bytes_written=float(out_elements * L.FLOAT_BYTES),
        duration_s=duration,
        sample_fraction=fraction,
        active_lanes=min(L.WARP_SIZE, max(1, f)),
        tag=tag,
        replaces=(f"spmm:{tag}",) if epilogue else (),
        epilogue=epilogue,
    ))


def fused_gather_scatter(source: np.ndarray, src_index: np.ndarray,
                         dst_index: np.ndarray, dim_size: int,
                         scale: Optional[np.ndarray] = None,
                         reduce: str = "sum", tag: str = "",
                         gather_tag: Optional[str] = None,
                         structure: Optional[ReductionStructure] = None,
                         operator: Optional[_sp.csr_matrix] = None,
                         rows: Optional[_sp.csr_matrix] = None,
                         row_sparse_out: bool = False):
    """Fused message passing: gather + (scale +) scatter in one launch.

    Numerically identical — bit-for-bit — to
    ``scatter(index_select(source, src_index) * scale[:, None],
    dst_index, dim_size, reduce)``, but the per-edge message matrix is
    never materialised: the CSR aggregation operator of ``(dst_index,
    src_index, scale)`` is applied once.  Its row ``n`` holds
    ``(scale[e], src_index[e])`` for the in-edges ``e`` of ``n`` in
    original edge order, so the compiled product accumulates
    ``scale[e] * source[src_index[e]]`` in exactly the sequence the
    unfused scatter sums the materialised messages in — bit for bit,
    because the product rounds ``a * x`` to float32 before the add, as
    the materialised message was rounded.

    Parameters
    ----------
    source:
        2-D float node-embedding matrix ``[n, f]``, or its row-sparse
        form (a SciPy sparse matrix), which then stands for ``rows`` too
        and is densified for this call only where the rule says dense.
    src_index / dst_index:
        Per-edge source and destination node ids (equal length).
    dim_size:
        Number of output slots (destination nodes).
    scale:
        Optional per-edge weight vector applied to the gathered rows.
    reduce:
        ``"sum"`` or ``"mean"``.
    tag / gather_tag:
        Labels of the scatter / gather launches this fused launch
        replaces (``gather_tag`` defaults to ``tag``); recorded on the
        launch's ``replaces`` for the fusion trace mapping.
    structure:
        The :func:`~repro.core.kernels.scatter.reduction_structure` of
        ``(dst_index, dim_size)`` when the caller keeps it resident;
        built on the spot otherwise.
    operator:
        The :func:`~repro.core.kernels.scatter.aggregation_operator` of
        ``(structure, src_index, scale, source.shape[0])`` when the
        caller keeps it resident; built on the spot otherwise.
    rows:
        The resident row-sparse form of ``source``
        (:meth:`repro.graph.Graph.feature_rows`), when the caller holds
        the graph.  The operator multiplies it where
        :func:`~repro.core.kernels.scatter.takes_row_sparse` says so,
        bit for bit the dense result for finite operator values; the
        launch record is the same either way.
    row_sparse_out:
        Return a reduction taken over ``rows`` as its SpGEMM product (a
        SciPy CSR, mean already divided) instead of densifying it; a
        dense result is returned dense either way.
    """
    if _sp.issparse(source):
        source = rows = source.tocsr().astype(np.float32, copy=False)
    else:
        source = np.asarray(source, dtype=np.float32)
    src_index = np.asarray(src_index)
    dst_index = np.asarray(dst_index)
    if source.ndim != 2:
        raise KernelError(
            f"fusedGatherScatter expects a 2-D source, got {source.ndim}-D")
    if src_index.ndim != 1 or dst_index.ndim != 1:
        raise KernelError("fusedGatherScatter indices must be 1-D")
    if src_index.shape[0] != dst_index.shape[0]:
        raise KernelError(
            f"src/dst index length mismatch: {src_index.shape[0]} vs "
            f"{dst_index.shape[0]}")
    for name, index in (("src", src_index), ("dst", dst_index)):
        if index.size and not np.issubdtype(index.dtype, np.integer):
            raise KernelError(
                f"{name} index must be integral, got dtype {index.dtype}")
    if src_index.size and (int(src_index.min()) < 0
                           or int(src_index.max()) >= source.shape[0]):
        raise KernelError("src index out of range")
    if dst_index.size and (int(dst_index.min()) < 0
                           or int(dst_index.max()) >= int(dim_size)):
        raise KernelError("dst index out of range")
    if scale is not None:
        scale = np.asarray(scale)
        if scale.shape != (src_index.shape[0],):
            raise KernelError(
                f"scale must have shape ({src_index.shape[0]},), "
                f"got {scale.shape}")
    if reduce not in REDUCE_OPS:
        raise KernelError(
            f"unknown reduce {reduce!r}; expected one of {REDUCE_OPS}")
    if structure is not None:
        structure.check(dst_index.shape[0], int(dim_size))
    if operator is not None:
        _check_operator(operator, int(dim_size), source.shape[0],
                        dst_index.shape[0])
    _check_rows(rows, source)

    start = time.perf_counter()
    out = _reduce(source, dst_index,
                  int(dim_size), reduce, structure, operator, src_index,
                  scale, rows, keep=row_sparse_out)
    duration = time.perf_counter() - start

    recorder = L.active_recorder()
    if recorder is not None:
        _emit_fused_gather_scatter(
            recorder, source, src_index, dst_index, out, scale, reduce,
            duration, tag, tag if gather_tag is None else gather_tag)
    return out


def _emit_fused_gather_scatter(recorder: L.LaunchRecorder,
                               source, src_index: np.ndarray,
                               dst_index: np.ndarray, out,
                               scale, reduce: str, duration: float,
                               tag: str, gather_tag: str) -> None:
    """Launch record of one fused gather-scatter.

    The memory trace carries the gathered source rows and the
    scattered destination rows; the intermediate message matrix never
    reaches DRAM, which is exactly the traffic fusion eliminates.
    """
    edges = int(src_index.size)
    width = source.shape[1] if source.ndim == 2 else 1
    row_bytes = width * L.FLOAT_BYTES
    elements = float(edges) * width

    stride = L.sample_stride(edges, max(
        1, recorder.sample_cap // max(1, row_bytes // L.LINE_BYTES + 1)))
    sampled_src = src_index[::stride]
    sampled_dst = dst_index[::stride]
    fraction = (sampled_src.size / edges) if edges else 1.0

    source_base, index_base, out_base = L.operand_bases(3)
    loads = np.concatenate([
        L.sequential_lines(index_base,
                           2 * edges * L.FLOAT_BYTES + (
                               edges * L.FLOAT_BYTES if scale is not None
                               else 0),
                           recorder.sample_cap),
        L.row_lines(source_base, np.asarray(sampled_src, dtype=np.int64),
                    row_bytes),
    ])
    stores = L.row_lines(out_base, np.asarray(sampled_dst, dtype=np.int64),
                         row_bytes)

    scale_elements = edges if scale is not None else 0
    recorder.emit(L.KernelLaunch(
        kernel="fusedGatherScatter",
        short_form="fg",
        model="MP",
        threads=max(1, int(elements)),
        mix=mix_for("fusedGatherScatter", elements + scale_elements),
        loads=loads,
        stores=stores,
        flops=elements + scale_elements,
        bytes_read=float(L.FLOAT_BYTES) * (
            elements + 2 * edges + scale_elements),
        bytes_written=float(int(np.prod(out.shape)) * L.FLOAT_BYTES),
        duration_s=duration,
        sample_fraction=fraction,
        atomic=True,
        active_lanes=min(L.WARP_SIZE, max(1, width)),
        tag=tag or reduce,
        # The scatter emitter defaults an empty tag to the reduce name;
        # the mapping must mirror that or legacy_trace() diverges from
        # the unfused launch stream on untagged ops.
        replaces=(f"indexSelect:{gather_tag}", f"scatter:{tag or reduce}"),
    ))


def spgemm(a: CSRMatrix, b: CSRMatrix, tag: str = "") -> CSRMatrix:
    """Sparse x sparse product ``a @ b`` in CSR form.

    Parameters
    ----------
    a, b:
        Conforming CSR matrices.
    tag:
        Optional label copied onto the emitted :class:`KernelLaunch`.
    """
    if not isinstance(a, CSRMatrix) or not isinstance(b, CSRMatrix):
        raise KernelError("spgemm expects two CSRMatrix operands")
    if a.shape[1] != b.shape[0]:
        raise KernelError(f"spgemm dimension mismatch: {a.shape} x {b.shape}")

    start = time.perf_counter()
    out = a.spgemm(b)
    duration = time.perf_counter() - start

    recorder = L.active_recorder()
    if recorder is not None:
        _emit_spgemm(recorder, a, b, out, duration, tag)
    return out


def _emit_spgemm(recorder: L.LaunchRecorder, a: CSRMatrix, b: CSRMatrix,
                 out: CSRMatrix, duration: float, tag: str) -> None:
    # Expansion size: every stored (i, k) of A visits the whole row k of B.
    b_row_len = b.row_lengths()
    expansion = float(b_row_len[a.indices].sum()) if a.nnz else 0.0
    avg_b_row_bytes = max(
        L.FLOAT_BYTES,
        int(2 * L.FLOAT_BYTES * (b.nnz / max(1, b.shape[0]))),
    )

    stride = L.sample_stride(a.nnz, max(1, recorder.sample_cap // 4))
    sampled_rows = a.indices[::stride]
    fraction = (sampled_rows.size / a.nnz) if a.nnz else 1.0

    a_base, b_base, out_base = L.operand_bases(3)
    cap = recorder.sample_cap
    loads = np.concatenate([
        L.sequential_lines(a_base, 2 * a.nnz * L.FLOAT_BYTES, cap),
        L.row_lines(b_base, sampled_rows, avg_b_row_bytes),
    ])
    stores = L.sequential_lines(out_base, 2 * out.nnz * L.FLOAT_BYTES, cap)

    recorder.emit(L.KernelLaunch(
        kernel="SpGEMM",
        short_form="sp",
        model="SpMM",
        threads=max(1, int(expansion)),
        mix=mix_for("SpGEMM", expansion),
        loads=loads,
        stores=stores,
        flops=2.0 * expansion,
        bytes_read=float(L.FLOAT_BYTES) * (2 * a.nnz + 2 * b.nnz),
        bytes_written=float(2 * out.nnz * L.FLOAT_BYTES),
        duration_s=duration,
        sample_fraction=fraction,
        active_lanes=min(
            L.WARP_SIZE, max(1, int(b.nnz / max(1, b.shape[0])))
        ),
        tag=tag,
    ))

"""The ``sgemm`` core kernel (Table II).

"Generalized matrix multiplication of two given matrices" — the dense
linear transform every GNN layer applies during combination, wrapped as
``C = alpha * A @ B + beta * C + bias``.  In the paper this is a cuBLAS
call, spread over the whole device; here the compute is NumPy's BLAS,
its rows split over the process's CPUs once the product is large
enough (:func:`~repro.graph.formats.row_parallel_product`: at least
``ROW_SPLIT_GRAIN`` multiply-adds per range, bit for bit the serial
``a @ b`` at any split), and the launch record models a 32x32-tiled
shared-memory GEMM.  The epilogue (``alpha``, ``beta * c``, bias,
activation) runs inside each range on that range's rows.

A first layer's left operand is the graph's own feature matrix, which
on the citation datasets is 1 % non-zero, and the sum / mean of it a
layer transforms is a few per cent non-zero.  The caller that holds the
graph passes ``a`` row-sparse (a SciPy CSR: the resident form
:meth:`repro.graph.Graph.feature_rows`, or an aggregation's kept
SpGEMM product) and the product runs over the stored entries only,
through the compiled CSR routine the sparse kernels use, split the
same way; the launch record is the dense GEMM's either way, counted
from shapes, so simulated figures do not know which route the host
took.
"""

from __future__ import annotations

import math
import time
from typing import Optional

import numpy as np
import scipy.sparse as _sp

from repro.core.kernels import launch as L
from repro.core.kernels.costmodel import EPILOGUE_FP32_PER_ELEMENT, mix_for
from repro.errors import KernelError
from repro.graph.formats import row_parallel_product

__all__ = ["sgemm"]

#: Tile edge assumed by the traffic model (threads per CTA dimension).
_TILE = 32


def sgemm(a: np.ndarray, b: np.ndarray, bias: Optional[np.ndarray] = None,
          alpha: float = 1.0, beta: float = 0.0, c: Optional[np.ndarray] = None,
          tag: str = "", activation: Optional[str] = None) -> np.ndarray:
    """Dense matrix multiply ``alpha * a @ b + beta * c + bias``.

    Parameters
    ----------
    a, b:
        Float matrices of shape ``[n, k]`` and ``[k, m]``.  ``a`` may be
        row-sparse: a SciPy CSR is multiplied over its stored entries
        (``a @ b`` in the order they are stored), which agrees with the
        dense product to float32 reassociation; every output row is a
        function of its own input row alone, whatever the row count.
    bias:
        Optional length-``m`` vector added to every output row (the GNN
        layer bias; fused the way cuBLAS epilogues fuse it).
    alpha, beta:
        BLAS scaling factors; ``beta`` requires ``c``.
    c:
        Optional accumulator matrix of shape ``[n, m]``.
    tag:
        Optional label copied onto the emitted :class:`KernelLaunch`.
    activation:
        Optional epilogue: the named activation is applied to the
        finished output inside this launch (cuBLAS-epilogue style, the
        plan-level-fusion hook).  Applied *after* the float32 cast, so
        the result is bit-for-bit what a separate activation over this
        kernel's output would produce; the launch record carries the
        epilogue's extra arithmetic and a ``replaces`` entry naming the
        plain sgemm launch it stands in for.  It runs in place on the
        launch's own product array, allocating no second ``[n, m]``.
    """
    a = a.tocsr().astype(np.float32, copy=False) if _sp.issparse(a) \
        else np.asarray(a, dtype=np.float32)
    b = np.asarray(b, dtype=np.float32)
    if a.ndim != 2 or b.ndim != 2:
        raise KernelError(
            f"sgemm expects 2-D operands, got {a.ndim}-D and {b.ndim}-D"
        )
    if a.shape[1] != b.shape[0]:
        raise KernelError(f"sgemm dimension mismatch: {a.shape} x {b.shape}")
    if bias is not None:
        bias = np.asarray(bias, dtype=np.float32)
        if bias.shape != (b.shape[1],):
            raise KernelError(
                f"bias must have shape ({b.shape[1]},), got {bias.shape}"
            )
    if beta != 0.0 and c is None:
        raise KernelError("beta != 0 requires an accumulator matrix c")
    if c is not None:
        c = np.asarray(c, dtype=np.float32)
        if c.shape != (a.shape[0], b.shape[1]):
            raise KernelError(
                f"c must have shape {(a.shape[0], b.shape[1])}, got {c.shape}"
            )

    act = None
    if activation:
        from repro.core.models.activations import get_activation
        act = get_activation(activation)

    def finish(lo: int, hi: int, rows: np.ndarray) -> None:
        # Rows lo:hi of this launch's own product, updated in place
        # with the roundings of the out-of-place expression
        # ``alpha * (a @ b) + beta * c + bias``: every step is
        # elementwise, so finishing a row range at a time leaves the
        # same bits as finishing the whole product.
        if alpha != 1.0:
            rows *= np.float32(alpha)
        if beta != 0.0:
            rows += np.float32(beta) * c[lo:hi]
        if bias is not None:
            rows += bias
        if act is not None:
            act(rows, out=rows)

    start = time.perf_counter()
    out = row_parallel_product(a, b, finish)
    duration = time.perf_counter() - start

    recorder = L.active_recorder()
    if recorder is not None:
        _emit(recorder, a, b, out, duration, tag, epilogue=activation or "")
    return out


def _row_tile_interleave(a_sweep: np.ndarray, b_sweep: np.ndarray,
                         row_tiles: int, cap: int) -> np.ndarray:
    """Interleave A's row-tile chunks with full B re-reads.

    For each of ``row_tiles`` output row blocks, a tiled GEMM reads that
    block's slice of A once and the whole of B again.  The trace contains
    ``[A-slice 0, B, A-slice 1, B, ...]`` for as many row tiles as fit in
    ``cap`` accesses, preserving B's short reuse distance.
    """
    if a_sweep.size == 0 or b_sweep.size == 0:
        return np.concatenate([a_sweep, b_sweep])
    row_tiles = max(1, row_tiles)
    a_chunk = max(1, a_sweep.shape[0] // row_tiles)
    per_tile = a_chunk + b_sweep.shape[0]
    budget_tiles = max(1, min(row_tiles, cap // per_tile))
    pieces = []
    for tile in range(budget_tiles):
        pieces.append(a_sweep[tile * a_chunk:(tile + 1) * a_chunk])
        pieces.append(b_sweep)
    return np.concatenate(pieces)


def _emit(recorder: L.LaunchRecorder, a, b, out, duration: float,
          tag: str, epilogue: str = "") -> None:
    """Launch record modelling a 32x32-tiled GEMM's global traffic.

    ``epilogue`` names a fused activation stage: its per-element
    arithmetic joins the instruction mix (applied in registers before
    the store — no extra memory traffic) and the record declares the
    plain sgemm launch it replaces, for the fusion trace mapping.
    Operand sizes come from shapes, so a row-sparse ``a`` records the
    dense GEMM.
    """
    n, k = a.shape
    m = b.shape[1]
    fmas = float(n) * k * m
    row_tiles = math.ceil(n / _TILE)
    col_tiles = math.ceil(m / _TILE)

    a_base, b_base, out_base = L.operand_bases(3)
    cap = recorder.sample_cap
    # A tiled GEMM walks A row-tile by row-tile, re-reading all of B for
    # every row tile: B recurs at short reuse distance (cache hits), A
    # streams once.  The trace replays that interleaving for as many row
    # tiles as the sample budget allows.
    a_sweep = L.sequential_lines(a_base, n * k * L.FLOAT_BYTES, cap)
    b_sweep = L.sequential_lines(b_base, b.size * L.FLOAT_BYTES, cap)
    loads = _row_tile_interleave(a_sweep, b_sweep, row_tiles, cap)
    stores = L.sequential_lines(out_base, out.size * L.FLOAT_BYTES, cap)

    mix = mix_for("sgemm", fmas)
    if epilogue:
        mix.fp32 += EPILOGUE_FP32_PER_ELEMENT * out.size
    recorder.emit(L.KernelLaunch(
        kernel="sgemm",
        short_form="sg",
        model="SpMM",   # listed under SpMM in Table II; used by both models
        threads=max(1, n * m),
        mix=mix,
        loads=loads,
        stores=stores,
        flops=2.0 * fmas + (float(out.size) if epilogue else 0.0),
        bytes_read=float(L.FLOAT_BYTES) * (n * k * col_tiles
                                           + b.size * row_tiles),
        bytes_written=float(out.size * L.FLOAT_BYTES),
        duration_s=duration,
        tag=tag,
        replaces=(f"sgemm:{tag}",) if epilogue else (),
        epilogue=epilogue,
    ))

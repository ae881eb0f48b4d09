"""The ``indexSelect`` core kernel (Table II, MP model).

"Indexes the input along specified dimension by using index entries" —
the gather that materialises per-edge messages from per-node embeddings
(PyG's ``x[edge_index[0]]``).  Handed the row-sparse form of its input,
it gathers the stored entries only and returns the messages row-sparse;
the launch record is the dense gather's either way.
"""

from __future__ import annotations

import time
from typing import Optional

import numpy as np
import scipy.sparse as _sp

from repro.core.kernels import launch as L
from repro.core.kernels.costmodel import mix_for
from repro.core.kernels.scatter import _check_rows
from repro.errors import KernelError

__all__ = ["index_select"]


def index_select(input: np.ndarray, index: np.ndarray, dim: int = 0,
                 tag: str = "", rows: Optional[_sp.csr_matrix] = None):
    """Gather rows (or columns) of ``input`` selected by ``index``.

    Parameters
    ----------
    input:
        1-D or 2-D float array (a node-embedding matrix ``[n, f]``), or
        the row-sparse form of a 2-D one (a SciPy sparse matrix), which
        then stands for ``rows`` too.
    index:
        1-D integer array of positions along ``dim``; entries may repeat
        and appear in any order, exactly like an edge list's endpoints.
    dim:
        0 selects rows (the GNN case), 1 selects columns.
    tag:
        Optional label copied onto the emitted :class:`KernelLaunch`.
    rows:
        The row-sparse form of a 2-D ``input`` (``dim=0`` only), when
        the caller keeps one resident and the consumer can reduce a
        row-sparse matrix (see :class:`repro.plan.PlanExecutor`).

    Returns
    -------
    numpy.ndarray or scipy.sparse.csr_matrix
        ``input`` gathered along ``dim``; shape ``[len(index), f]`` for
        ``dim=0``.  With ``rows``, the CSR ``rows[index]``: the stored
        entries of the gathered rows, in their stored order — the dense
        gather's non-zeros, without its ``[len(index), f]`` array.
    """
    if _sp.issparse(input):
        input = rows = input.tocsr()
    else:
        input = np.asarray(input)
    index = np.asarray(index)
    if input.ndim not in (1, 2):
        raise KernelError(f"indexSelect expects 1-D or 2-D input, got {input.ndim}-D")
    if index.ndim != 1:
        raise KernelError(f"index must be 1-D, got {index.ndim}-D")
    if index.size and not np.issubdtype(index.dtype, np.integer):
        raise KernelError(f"index must be integral, got dtype {index.dtype}")
    if dim not in (0, 1) or (dim == 1 and input.ndim == 1):
        raise KernelError(f"invalid dim={dim} for {input.ndim}-D input")
    if rows is not None and (dim != 0 or input.ndim != 2):
        raise KernelError("a row-sparse input gathers rows of a 2-D matrix")
    _check_rows(rows, input)
    extent = input.shape[dim]
    if index.size and (int(index.min()) < 0 or int(index.max()) >= extent):
        raise KernelError(
            f"index out of range: valid [0, {extent}), "
            f"got [{int(index.min())}, {int(index.max())}]"
        )

    start = time.perf_counter()
    if rows is not None:
        out = rows[index]
    else:
        out = input[index] if dim == 0 else input[:, index]
    duration = time.perf_counter() - start

    recorder = L.active_recorder()
    if recorder is not None:
        _emit(recorder, input, index, out, dim, duration, tag)
    return out


def _emit(recorder: L.LaunchRecorder, input: np.ndarray, index: np.ndarray,
          out, dim: int, duration: float, tag: str) -> None:
    """Build and emit the launch record for one gather.

    Elements are counted from the shape, so a row-sparse ``out`` (whose
    ``size`` is its stored-entry count) records the dense gather.
    """
    elements = int(np.prod(out.shape))
    row_width = input.shape[1] if (input.ndim == 2 and dim == 0) else 1
    row_bytes = row_width * L.FLOAT_BYTES

    # Sample the dereferenced indices so huge edge lists stay tractable.
    stride = L.sample_stride(index.size, max(1, recorder.sample_cap // max(1, row_bytes // L.LINE_BYTES + 1)))
    sampled = index[::stride] if dim == 0 else index[:0]
    fraction = (sampled.size / index.size) if index.size else 1.0

    input_base, index_base, out_base = L.operand_bases(3)
    gathers = L.row_lines(input_base, sampled, row_bytes) if dim == 0 else \
        L.sequential_lines(input_base, input.size * L.FLOAT_BYTES, recorder.sample_cap)
    loads = np.concatenate([
        L.sequential_lines(index_base, index.size * L.FLOAT_BYTES,
                           recorder.sample_cap),
        gathers,
    ])
    stores = L.sequential_lines(out_base, elements * L.FLOAT_BYTES,
                                recorder.sample_cap)

    recorder.emit(L.KernelLaunch(
        kernel="indexSelect",
        short_form="is",
        model="MP",
        threads=max(1, elements),
        mix=mix_for("indexSelect", elements + index.size),
        loads=loads,
        stores=stores,
        flops=0.0,
        bytes_read=float(elements * L.FLOAT_BYTES + index.size * L.FLOAT_BYTES),
        bytes_written=float(elements * L.FLOAT_BYTES),
        duration_s=duration,
        sample_fraction=fraction,
        # Row-copy inner loops keep only `row_width` lanes busy when the
        # feature width is below the warp size (memory divergence).
        active_lanes=min(L.WARP_SIZE, max(1, row_width)),
        tag=tag,
    ))

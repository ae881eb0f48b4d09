"""Core GNN kernels (Table II) with launch instrumentation."""

from repro.core.kernels.index_select import index_select
from repro.core.kernels.launch import (
    FLOAT_BYTES,
    LINE_BYTES,
    WARP_SIZE,
    InstructionMix,
    KernelLaunch,
    LaunchRecorder,
    active_recorder,
    record_launches,
)
from repro.core.kernels.registry import KERNELS, KernelSpec, kernel_table
from repro.core.kernels.scatter import (
    REDUCE_OPS,
    ROW_SPARSE_RATIO,
    aggregation_operator,
    finite_rows,
    reduction_structure,
    row_sparse_ratio,
    scatter,
    takes_row_sparse,
)
from repro.core.kernels.sgemm import sgemm
from repro.core.kernels.sparse import (
    fused_gather_scatter,
    spgemm,
    spmm,
)

__all__ = [
    "FLOAT_BYTES",
    "KERNELS",
    "InstructionMix",
    "KernelLaunch",
    "KernelSpec",
    "LaunchRecorder",
    "LINE_BYTES",
    "REDUCE_OPS",
    "ROW_SPARSE_RATIO",
    "WARP_SIZE",
    "active_recorder",
    "aggregation_operator",
    "finite_rows",
    "fused_gather_scatter",
    "index_select",
    "kernel_table",
    "record_launches",
    "reduction_structure",
    "row_sparse_ratio",
    "scatter",
    "sgemm",
    "spgemm",
    "spmm",
    "takes_row_sparse",
]

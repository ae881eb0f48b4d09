"""Registry of the core kernels (the paper's Table II).

The registry powers extendability: a new GNN model is "a plug-and-play
composition of core kernels", and characterization tooling iterates this
table rather than hard-coding kernel names.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Tuple

from repro.core.kernels.index_select import index_select
from repro.core.kernels.scatter import scatter
from repro.core.kernels.sgemm import sgemm
from repro.core.kernels.sparse import spgemm, spmm

__all__ = ["KernelSpec", "KERNELS", "kernel_table"]


@dataclass(frozen=True)
class KernelSpec:
    """One Table II row: a core kernel and its classification."""

    name: str
    short_form: str
    model: str           # computational model: "MP" or "SpMM"
    description: str
    fn: Callable


KERNELS: Dict[str, KernelSpec] = {
    spec.name: spec
    for spec in (
        KernelSpec(
            "indexSelect", "is", "MP",
            "Indexes the input along specified dimension by using index entries.",
            index_select,
        ),
        KernelSpec(
            "scatter", "sc", "MP",
            "Reduces given input based-on index vector using entries.",
            scatter,
        ),
        KernelSpec(
            "sgemm", "sg", "SpMM",
            "Generalized matrix multiplication of two given matrices.",
            sgemm,
        ),
        KernelSpec(
            "SpGEMM", "sp", "SpMM",
            "Matrix multiplication of two sparse matrices.",
            spgemm,
        ),
        KernelSpec(
            "spmm", "sp", "SpMM",
            "Sparse-dense matrix multiplication (fused aggregate).",
            spmm,
        ),
    )
}


def kernel_table() -> Tuple[Tuple[str, str, str, str], ...]:
    """Rows of Table II: (name, computational model, short form, description)."""
    return tuple(
        (spec.name, spec.model, spec.short_form, spec.description)
        for spec in KERNELS.values()
    )

"""GraphSAGE (Hamilton et al.), mean aggregator, MP only.

Paper Eq. 5::

    h_v' = W1 h_v + W2 * mean_{u in N(v) + v} h_u

The paper notes no SpMM formulation of SAGE was available, so — exactly
like gSuite — ``compute_model="SpMM"`` raises
:class:`~repro.errors.ModelError`.

The *plan* layer is less constrained: the mean over ``N(v) + v`` is one
row-normalised SpMM (how the DGL-like backend realises its SAGE conv),
so the model offers an SpMM lowering for the adaptive planner even
though its compute model stays MP-only (``lowerable_formats``).
"""

from __future__ import annotations

import numpy as np

from repro.core.models.base import GNNModel
from repro.graph import Graph, add_self_loops
from repro.graph.formats import CSRMatrix
from repro.graph.ops import self_loop_adjacency_csr

__all__ = ["SAGE", "mean_adjacency_matrix"]


def mean_adjacency_matrix(graph: Graph) -> CSRMatrix:
    """Row-normalised ``A-hat`` realising mean over ``N(v) + v`` as SpMM.

    Shared by the plan executor's ``mean_adjacency`` Normalize kind and
    the DGL-like backend's cached graph object; built once per graph
    (:meth:`Graph.structure`).
    """
    return graph.structure("mean_adjacency_matrix",
                           lambda: _mean_adjacency_matrix(graph))


def _mean_adjacency_matrix(graph: Graph) -> CSRMatrix:
    looped = add_self_loops(graph)
    csr = self_loop_adjacency_csr(graph)
    degree = np.maximum(1, looped.in_degrees()).astype(np.float32)
    rows = csr.expand_rows()
    data = csr.data / degree[rows]
    return CSRMatrix(csr.indptr, csr.indices, data, shape=csr.shape)


class SAGE(GNNModel):
    """GraphSAGE with the mean aggregator (MP computational model only)."""

    name = "sage"
    supported_compute_models = ("MP",)
    lowerable_formats = ("MP", "SpMM")

    def _init_layer(self, fan_in: int, fan_out: int) -> dict:
        """Separate self (W1) and neighbour (W2) transforms."""
        return {
            "W1": self._glorot(fan_in, fan_out),
            "W2": self._glorot(fan_in, fan_out),
            "b": np.zeros(fan_out, dtype=np.float32),
        }

    # -- plan lowering ------------------------------------------------------
    def lower_prepare(self, builder, fmt: str) -> dict:
        if fmt == "MP":
            src, dst = builder.normalize(
                "self_loop_endpoints",
                outputs=(("src", "edge"), ("dst", "edge")))
            return {"src": src, "dst": dst}
        mean_adj, = builder.normalize(
            "mean_adjacency", outputs=(("mean_adjacency", "csr"),))
        return {"mean_adjacency": mean_adj}

    def lower_layer(self, layer: int, x, builder, state: dict, fmt: str):
        params = self.weights[layer]
        tag = f"sage-l{layer}"
        w_self = builder.constant(params["W1"], name=f"l{layer}.W1")
        w_neigh = builder.constant(params["W2"], name=f"l{layer}.W2")
        bias = builder.constant(params["b"], name=f"l{layer}.b")
        if fmt == "MP":
            messages = builder.gather(x, state["src"], tag=tag)
            mean_neigh = builder.scatter_reduce(messages, state["dst"],
                                                reduce="mean", tag=tag)
        else:
            mean_neigh = builder.spmm(state["mean_adjacency"], x, tag=tag)
        self_part = builder.sgemm(x, w_self, tag=tag)
        neigh_part = builder.sgemm(mean_neigh, w_neigh, bias=bias, tag=tag)
        return builder.elementwise("add", self_part, neigh_part)

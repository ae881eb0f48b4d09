"""Graph Isomorphism Network (Xu et al.), MP and SpMM variants.

MP (paper Eq. 3)::

    h_v' = Theta( (1 + eps) * h_v + sum_{u in N(v)} h_u )

SpMM (paper Eq. 4)::

    X' = Theta( (A + (1 + eps) I) X )

The DGL-like backend supplies the plain adjacency ``A`` instead of
``A + (1 + eps) I``; its layer then reads as DGL's ``GINConv`` does,
``spmm(A, X)`` followed by the MP path's ``(1 + eps) X`` combine.

Theta is the layer's MLP — gSuite realises it as two chained ``sgemm``
launches with a ReLU in between (the standard GIN-MLP of depth 2).
Aggregation runs at the *input* feature width (unlike GCN, which
transforms first), which is why GIN's gather/scatter kernels are so much
heavier on wide-feature datasets.
"""

from __future__ import annotations

import numpy as np

from repro.core.models.base import GNNModel
from repro.graph import Graph
from repro.graph.formats import COOMatrix, CSRMatrix

__all__ = ["GIN", "gin_aggregate_matrix"]


def gin_aggregate_matrix(graph: Graph, epsilon: float) -> CSRMatrix:
    """The SpMM aggregation matrix ``A + (1 + eps) I`` in CSR form.

    Behind the plan executor's ``gin_aggregate`` Normalize kind; built
    once per graph and epsilon (:meth:`Graph.structure`).
    """
    epsilon = float(epsilon)
    return graph.structure(("gin_aggregate_matrix", epsilon),
                           lambda: _gin_aggregate_matrix(graph, epsilon))


def _gin_aggregate_matrix(graph: Graph, epsilon: float) -> CSRMatrix:
    n = graph.num_nodes
    diag = np.arange(n, dtype=np.int64)
    rows = np.concatenate([graph.dst, diag])
    cols = np.concatenate([graph.src, diag])
    vals = np.concatenate([
        graph.edge_values(),
        np.full(n, 1.0 + epsilon, dtype=np.float32),
    ])
    return COOMatrix(rows, cols, vals, shape=(n, n)).coalesce().to_csr()


class GIN(GNNModel):
    """Two-sided GIN: select ``compute_model="MP"`` or ``"SpMM"``."""

    name = "gin"
    supported_compute_models = ("MP", "SpMM")

    def __init__(self, *args, epsilon: float = 0.1, **kwargs):
        self.epsilon = float(epsilon)
        super().__init__(*args, **kwargs)

    def _init_layer(self, fan_in: int, fan_out: int) -> dict:
        """GIN layer parameters: a 2-layer MLP."""
        mlp_hidden = max(fan_in, fan_out)
        return {
            "W1": self._glorot(fan_in, mlp_hidden),
            "b1": np.zeros(mlp_hidden, dtype=np.float32),
            "W2": self._glorot(mlp_hidden, fan_out),
            "b2": np.zeros(fan_out, dtype=np.float32),
        }

    # -- plan lowering ------------------------------------------------------
    def lower_prepare(self, builder, fmt: str) -> dict:
        if fmt == "MP":
            src, dst = builder.normalize(
                "edge_endpoints", outputs=(("src", "edge"), ("dst", "edge")))
            return {"src": src, "dst": dst}
        aggregate, = builder.normalize(
            "gin_aggregate", outputs=(("aggregate", "csr"),),
            params={"epsilon": self.epsilon})
        return {"aggregate": aggregate}

    def lower_layer(self, layer: int, x, builder, state: dict, fmt: str):
        params = self.weights[layer]
        tag = f"gin-l{layer}"
        w1 = builder.constant(params["W1"], name=f"l{layer}.W1")
        b1 = builder.constant(params["b1"], name=f"l{layer}.b1")
        w2 = builder.constant(params["W2"], name=f"l{layer}.W2")
        b2 = builder.constant(params["b2"], name=f"l{layer}.b2")
        if "aggregate" in state:
            combined = builder.spmm(state["aggregate"], x, tag=tag)
        else:
            if fmt == "MP":
                messages = builder.gather(x, state["src"], tag=tag)
                neighbour_sum = builder.scatter_reduce(
                    messages, state["dst"], reduce="sum", tag=tag)
            else:
                # DGL's GINConv: sum the neighbours over the plain
                # adjacency, then add (1 + eps) h.
                neighbour_sum = builder.spmm(state["adjacency"], x, tag=tag)
            combined = builder.elementwise("combine", x, neighbour_sum,
                                           alpha=self.epsilon)
        hidden = builder.activation(
            builder.sgemm(combined, w1, bias=b1, tag=tag), "relu")
        return builder.sgemm(hidden, w2, bias=b2, tag=tag)

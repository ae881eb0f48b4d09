"""Graph Attention Network (Velickovic et al.) — an extension model.

Not part of the paper's evaluated trio; included to demonstrate that the
core-kernel vocabulary covers attention-style models too (the paper's
extendability claim).  Single-head GAT, MP computational model:

    e_uv    = LeakyReLU( a_src . (W h_u) + a_dst . (W h_v) )
    alpha_uv = softmax_v(e_uv)          (softmax over v's in-edges)
    h_v'    = sum_u alpha_uv (W h_u)

The edge softmax decomposes entirely into Table II kernels: a
``scatter``-max for the stable maximum, ``indexSelect`` to broadcast it
back to edges, ``scatter``-sum for the normaliser, and a second
``indexSelect`` for the division — plus the usual gather/scatter pair
for aggregation.  Self-loops are inserted so every node attends at least
to itself.
"""

from __future__ import annotations

import numpy as np

from repro.core.kernels import index_select, scatter
from repro.core.models.base import GNNModel

__all__ = ["GAT", "attention_coefficients"]

#: LeakyReLU negative slope (Velickovic et al.'s 0.2).
_SLOPE = 0.2


def _leaky_relu(x: np.ndarray) -> np.ndarray:
    return np.where(x > 0, x, _SLOPE * x)


def attention_coefficients(h: np.ndarray, src: np.ndarray, dst: np.ndarray,
                           a_src: np.ndarray, a_dst: np.ndarray,
                           num_nodes: int, tag: str,
                           segments=None) -> np.ndarray:
    """Edge-softmax attention weights, composed from Table II kernels.

    Behind the plan executor's ``gat_attention`` Normalize kind.

    ``segments`` carries the member row ranges of a batched workload
    (see :class:`~repro.plan.ir.BatchSegmentMap`): the per-node score
    matvecs then run segment-local, because a BLAS matvec — like a
    GEMM — is not guaranteed bitwise under row-count changes, and
    batched plans promise bit-for-bit member outputs.  Everything
    downstream is per-destination (the softmax never mixes members of
    a block-diagonal edge list) and needs no segmentation.
    """
    if segments is not None and len(segments) > 1:
        score_src = np.concatenate([h[lo:hi] @ a_src for lo, hi in segments])
        score_dst = np.concatenate([h[lo:hi] @ a_dst for lo, hi in segments])
    else:
        score_src = h @ a_src
        score_dst = h @ a_dst
    logits = _leaky_relu(
        index_select(score_src[:, None], src, tag=tag)[:, 0]
        + index_select(score_dst[:, None], dst, tag=tag)[:, 0]
    )
    # Numerically stable edge softmax over each destination's in-edges.
    max_per_dst = scatter(logits[:, None], dst, dim_size=num_nodes,
                          reduce="max", tag=tag)[:, 0]
    shifted = logits - index_select(max_per_dst[:, None], dst, tag=tag)[:, 0]
    unnormalised = np.exp(shifted).astype(np.float32)
    denom = scatter(unnormalised[:, None], dst, dim_size=num_nodes,
                    reduce="sum", tag=tag)[:, 0]
    denom_per_edge = index_select(denom[:, None], dst, tag=tag)[:, 0]
    return unnormalised / np.maximum(denom_per_edge, 1e-12)


class GAT(GNNModel):
    """Single-head Graph Attention Network (MP only)."""

    name = "gat"
    supported_compute_models = ("MP",)

    @classmethod
    def aggregation_width(cls, fmt: str, fan_in: int, fan_out: int) -> int:
        """GAT gathers the transformed ``h = x @ W``: output width."""
        return fan_out

    def _init_layer(self, fan_in: int, fan_out: int) -> dict:
        return {
            "W": self._glorot(fan_in, fan_out),
            "a_src": self._glorot(fan_out, 1)[:, 0],
            "a_dst": self._glorot(fan_out, 1)[:, 0],
            "b": np.zeros(fan_out, dtype=np.float32),
        }

    # -- plan lowering ------------------------------------------------------
    def lower_prepare(self, builder, fmt: str) -> dict:
        src, dst = builder.normalize(
            "self_loop_endpoints", outputs=(("src", "edge"), ("dst", "edge")))
        return {"src": src, "dst": dst}

    def lower_layer(self, layer: int, x, builder, state: dict, fmt: str):
        params = self.weights[layer]
        tag = f"gat-l{layer}"
        weight = builder.constant(params["W"], name=f"l{layer}.W")
        a_src = builder.constant(params["a_src"], name=f"l{layer}.a_src")
        a_dst = builder.constant(params["a_dst"], name=f"l{layer}.a_dst")
        bias = builder.constant(params["b"], name=f"l{layer}.b")

        h = builder.sgemm(x, weight, tag=tag)
        alpha, = builder.normalize(
            "gat_attention", outputs=(("alpha", "vec"),),
            inputs=(h, state["src"], state["dst"], a_src, a_dst), tag=tag)
        messages = builder.gather(h, state["src"], scale=alpha, tag=tag)
        out = builder.scatter_reduce(messages, state["dst"], reduce="sum",
                                     tag=tag)
        return builder.elementwise("add_bias", out, bias)

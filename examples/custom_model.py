#!/usr/bin/env python
"""Extending gSuite with a new GNN model, plug-and-play.

The paper claims that "by utilizing MP and SpMM core kernels, a new GNN
model can be built in a plug-and-play manner".  This example builds a
Simple Graph Convolution (SGC, Wu et al. 2019) — a model the suite does
not ship — registers it, and characterizes it like any built-in model.

A model is written as its lowering: ``lower_prepare`` emits the
structure it needs once per execution format, and ``lower_layer`` emits
one layer's ops onto the shared execution plan.  Every backend runs
that plan, so the new model gets operator fusion, planner-chosen
formats and batching with no further code.

SGC collapses a K-layer GCN into one propagation:  X' = P^K X W  with
P = D^-1/2 (A+I) D^-1/2.  MP realises the K propagations as
gather/scatter rounds over normalised edge weights; SpMM as repeated
spmm over the assembled P.  Both reuse the plan IR's GCN normalisations.

Run:  python examples/custom_model.py
"""

import numpy as np

from repro import GNNPipeline
from repro.core.models import GNNModel, register_model


class SGC(GNNModel):
    """Simple Graph Convolution: K propagation hops, one linear layer."""

    name = "sgc"
    supported_compute_models = ("MP", "SpMM")

    def __init__(self, *args, hops: int = 2, **kwargs):
        self.hops = hops
        # SGC is a single linear layer regardless of `num_layers`.
        kwargs["num_layers"] = 1
        super().__init__(*args, **kwargs)

    def lower_prepare(self, builder, fmt):
        if fmt == "MP":
            src, dst, weight = builder.normalize(
                "gcn_edge_weights",
                outputs=(("src", "edge"), ("dst", "edge"), ("weight", "vec")))
            return {"src": src, "dst": dst, "weight": weight}
        propagation, = builder.normalize(
            "gcn_propagation", outputs=(("propagation", "csr"),),
            tag="sgc-normalize")
        return {"propagation": propagation}

    def lower_layer(self, layer, x, builder, state, fmt):
        for hop in range(self.hops):
            tag = f"sgc-hop{hop}"
            if fmt == "MP":
                messages = builder.gather(x, state["src"],
                                          scale=state["weight"], tag=tag)
                x = builder.scatter_reduce(messages, state["dst"],
                                           reduce="sum", tag=tag)
            else:
                x = builder.spmm(state["propagation"], x, tag=tag)
        params = self.weights[layer]
        weight = builder.constant(params["W"], name=f"l{layer}.W")
        bias = builder.constant(params["b"], name=f"l{layer}.b")
        return builder.sgemm(x, weight, bias=bias, tag="sgc-linear")


def main() -> None:
    register_model("sgc", SGC)
    print("Registered custom model 'sgc' (Simple Graph Convolution)\n")

    # The custom model drops into the standard pipeline untouched.
    pipeline = GNNPipeline.from_params(model="sgc", dataset="citeseer")
    logits = pipeline.run()
    print(f"SGC inference on CiteSeer: output {logits.shape}")

    # Both computational models lower from the same class; verify they
    # compute the same function.
    spmm_pipe = GNNPipeline.from_params(model="sgc", dataset="citeseer",
                                        compute_model="SpMM")
    diff = float(np.abs(spmm_pipe.run() - logits).max())
    print(f"MP vs SpMM max |difference|: {diff:.2e}")

    # The plan layer applies to it like to any zoo model ...
    decisions = pipeline.plan()
    print(f"plan: {len(decisions.execution_plan.ops)} ops, "
          f"fused sites {decisions.fused_sites}")

    # ... and so does the whole characterization stack.
    results = pipeline.simulate()
    print("\nPer-kernel simulation of the custom model:")
    for result in results:
        print(f"  {result.kernel:18s} ({result.tag:10s}) "
              f"dominant stall: {result.dominant_stall():18s} "
              f"L1 hit {result.l1_hit_rate:.0%}")


if __name__ == "__main__":
    main()

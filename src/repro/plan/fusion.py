"""Plan-level operator fusion: the dataflow pass over the IR.

The gSuite paper's central performance observation is that GNN
inference decomposes into *many small kernels* — and launch-bound
sequences of small kernels waste exactly the overheads a fused launch
amortises.  Now that every backend lowers onto the shared
:class:`~repro.plan.ir.ExecutionPlan` IR, fusion becomes a plan
transform instead of a per-backend rewrite.  :func:`fuse_plan` runs a
liveness/single-consumer analysis over the SSA op stream and merges

* **(a)** adjacent ``Gather`` + ``ScatterReduce`` pairs into one
  :class:`~repro.plan.ir.FusedGatherScatter` op — executed by the
  ``fusedGatherScatter`` kernel, which streams per-edge messages
  through destination-range blocks instead of materialising the
  ``[E, f]`` message matrix between two launches;
* **(b)** ``SGEMM`` followed by a constant-vector ``add_bias``
  and/or an ``Activation`` into one epilogue-carrying ``SGEMM``
  (cuBLAS-epilogue style: bias and activation fold into the launch);
* **(c)** chains of ``Elementwise`` / ``Activation`` ops into one
  :class:`~repro.plan.ir.FusedElementwise` traversal;
* **(d)** ``SpMM`` followed by a constant-vector ``add_bias`` and/or
  an ``Activation`` into one epilogue-carrying ``SpMM`` — the SpMM
  side of the epilogue contract (b);
* **(e)** *cross-layer*: an epilogue-complete ``SGEMM`` whose output
  feeds only the next layer's ``SpMM`` merges into one
  :class:`~repro.plan.ir.FusedTransformSpMM` launch — legal only for
  unbatched plans whose aggregation format is stable ``SpMM`` across
  layers (``layer_formats`` is the IR's legality fact), so the
  transformed features never round-trip through DRAM at the layer
  boundary.

**Legality.**  A producer fuses into its consumer only when the
intermediate value has *exactly one* consumer and is not the plan
output — a value read by two ops (or escaping as the output) must stay
materialised, which the parity suite pins with explicit reuse cases.
Ops are only considered when adjacent in the op stream, which keeps
the fused plan's launch order aligned with the unfused plan's.

**Exactness.**  Fused execution is bit-for-bit identical to unfused
execution: the epilogue applies the same float32 arithmetic after the
same cast, the elementwise chain replays the original stages, and the
streaming gather-scatter preserves every destination's reduction order
(see :func:`repro.core.kernels.scatter.streaming_reduce`).

**Trace mapping.**  Fused launches *declare the legacy launches they
replace* (:attr:`~repro.core.kernels.launch.KernelLaunch.replaces`);
:func:`legacy_trace` expands a recorded launch stream back into the
``(kernel, tag)`` sequence the unfused plan emits, which is how parity
tests pin trace equivalence across the fused/unfused boundary.

Every lowered plan takes patterns (a)-(d) unless ``fuse="off"``;
:func:`repro.plan.planner.choose_fusion` adds (e) when the formats are
stable ``SpMM``.  This module only implements the transform.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.plan.ir import (
    Activation,
    Elementwise,
    ExecutionPlan,
    FusedElementwise,
    FusedGatherScatter,
    FusedTransformSpMM,
    Gather,
    PlanOp,
    ScatterReduce,
    SGEMM,
    SpMM,
)

__all__ = [
    "FusionPolicy",
    "fuse_plan",
    "fusion_summary",
    "describe_fusion",
    "legacy_trace",
]

#: The fusion pattern names, in report order.
PATTERNS = ("gather_scatter", "sgemm_epilogue", "spmm_epilogue",
            "elementwise_chain", "cross_layer")


@dataclass(frozen=True)
class FusionPolicy:
    """Which fusion patterns :func:`fuse_plan` may apply.

    ``cross_layer`` is the one pattern a bare ``FusionPolicy()``
    leaves off: it merges work across a layer boundary, which is legal
    only on stable formats — :func:`repro.plan.planner.choose_fusion`
    turns it on for every plan with two or more layers whose formats
    are all ``SpMM``, which is what ``fuse="auto"`` runs.
    :func:`fuse_plan` additionally refuses it on batched plans, whose
    dense transforms must stay segment-local.

    ``source`` records where the decision came from (``"planner"`` /
    ``"forced"``) — reporting only, like
    :class:`~repro.plan.sharding.ShardingPolicy`.
    """

    gather_scatter: bool = True
    sgemm_epilogue: bool = True
    elementwise_chain: bool = True
    spmm_epilogue: bool = True
    cross_layer: bool = False
    source: str = "forced"

    @property
    def enabled(self) -> bool:
        """Whether any pattern is active."""
        return (self.gather_scatter or self.sgemm_epilogue
                or self.elementwise_chain or self.spmm_epilogue
                or self.cross_layer)


def structure_digest(plan: ExecutionPlan) -> str:
    """Structural hash of a plan: model, flavor, formats, op stream.

    Constant *payloads* are deliberately excluded — this is the cheap
    provenance stamp ``fuse_plan`` records in ``meta["fused_from"]``
    (re-hashing multi-MB weight matrices per build just for provenance
    would dwarf the pass itself).  Cache distinctness does not rest on
    it: fused and unfused plans already differ in
    :meth:`~repro.plan.ir.ExecutionPlan.fingerprint` through their op
    streams.
    """
    digest = hashlib.sha256()
    digest.update(f"{plan.model}|{plan.flavor}|"
                  f"{','.join(plan.layer_formats)}".encode())
    if plan.batch is not None:
        digest.update(repr(plan.batch).encode())
    for op in plan.ops:
        digest.update(repr(op).encode())
    return digest.hexdigest()


def _use_counts(plan: ExecutionPlan) -> Dict[int, int]:
    """Consumer count per SSA value id (plan output counts as a use)."""
    uses: Dict[int, int] = {}
    for op in plan.ops:
        for ref in op.operands():
            uses[ref.vid] = uses.get(ref.vid, 0) + 1
    uses[plan.output.vid] = uses.get(plan.output.vid, 0) + 1
    return uses


def _single_consumer(uses: Dict[int, int], vid: int) -> bool:
    return uses.get(vid, 0) == 1


def _try_gather_scatter(ops: Sequence[PlanOp], i: int,
                        uses: Dict[int, int]) -> Optional[FusedGatherScatter]:
    """Pattern (a): ``Gather`` at ``i`` + ``ScatterReduce`` at ``i+1``."""
    op = ops[i]
    if not isinstance(op, Gather) or i + 1 >= len(ops):
        return None
    successor = ops[i + 1]
    if not (isinstance(successor, ScatterReduce)
            and successor.source.vid == op.out.vid
            and _single_consumer(uses, op.out.vid)):
        return None
    return FusedGatherScatter(
        source=op.source, src_index=op.index, dst_index=successor.index,
        out=successor.out, scale=op.scale, reduce=successor.reduce,
        tag=successor.tag, gather_tag=op.tag)


def _try_sgemm_epilogue(ops: Sequence[PlanOp], i: int, uses: Dict[int, int],
                        constants: Dict[int, object],
                        ) -> Optional[Tuple[SGEMM, int]]:
    """Pattern (b): fold a trailing bias add and/or activation into SGEMM.

    Returns the epilogue-carrying op and the number of ops consumed,
    or ``None`` when nothing folds.
    """
    op = ops[i]
    if not isinstance(op, SGEMM) or op.activation:
        return None
    fused = op
    consumed = 1
    j = i + 1
    if (fused.bias is None and j < len(ops)
            and isinstance(ops[j], Elementwise)
            and ops[j].kind == "add_bias"
            and ops[j].a.vid == fused.out.vid
            and ops[j].b.vid in constants
            and ops[j].b.format == "vec"
            and _single_consumer(uses, fused.out.vid)):
        fused = replace(fused, bias=ops[j].b, out=ops[j].out)
        consumed += 1
        j += 1
    if (j < len(ops) and isinstance(ops[j], Activation)
            and ops[j].source.vid == fused.out.vid
            and _single_consumer(uses, fused.out.vid)):
        fused = replace(fused, activation=ops[j].function, out=ops[j].out)
        consumed += 1
    if consumed == 1:
        return None
    return fused, consumed


def _try_spmm_epilogue(ops: Sequence[PlanOp], i: int, uses: Dict[int, int],
                       constants: Dict[int, object],
                       ) -> Optional[Tuple[SpMM, int]]:
    """Pattern (d): fold a trailing bias add and/or activation into SpMM.

    The SpMM mirror of :func:`_try_sgemm_epilogue`: same legality
    (constant-vector bias, single consumer at every folded step), same
    return convention.
    """
    op = ops[i]
    if not isinstance(op, SpMM) or op.activation or op.bias is not None:
        return None
    fused = op
    consumed = 1
    j = i + 1
    if (j < len(ops) and isinstance(ops[j], Elementwise)
            and ops[j].kind == "add_bias"
            and ops[j].a.vid == fused.out.vid
            and ops[j].b.vid in constants
            and ops[j].b.format == "vec"
            and _single_consumer(uses, fused.out.vid)):
        fused = replace(fused, bias=ops[j].b, out=ops[j].out)
        consumed += 1
        j += 1
    if (j < len(ops) and isinstance(ops[j], Activation)
            and ops[j].source.vid == fused.out.vid
            and _single_consumer(uses, fused.out.vid)):
        fused = replace(fused, activation=ops[j].function, out=ops[j].out)
        consumed += 1
    if consumed == 1:
        return None
    return fused, consumed


def _try_cross_layer(ops: Sequence[PlanOp], i: int, uses: Dict[int, int],
                     constants: Dict[int, object], policy: "FusionPolicy",
                     ) -> Optional[Tuple[FusedTransformSpMM, int]]:
    """Pattern (e): an epilogue-complete SGEMM feeding the next SpMM.

    The transform (with any epilogue the policy would fold — pattern
    (b) runs implicitly here so the boundary is epilogue-complete)
    must have the following ``SpMM`` as its *only* consumer; the pair
    merges into one :class:`~repro.plan.ir.FusedTransformSpMM`.  The
    caller gates on format stability and on the plan being unbatched.
    """
    op = ops[i]
    if not isinstance(op, SGEMM):
        return None
    folded, consumed = op, 1
    if policy.sgemm_epilogue:
        result = _try_sgemm_epilogue(ops, i, uses, constants)
        if result is not None:
            folded, consumed = result
    j = i + consumed
    if j >= len(ops) or not isinstance(ops[j], SpMM):
        return None
    successor = ops[j]
    if (successor.dense.vid != folded.out.vid
            or successor.bias is not None or successor.activation
            or not _single_consumer(uses, folded.out.vid)):
        return None
    return FusedTransformSpMM(
        a=folded.a, b=folded.b, matrix=successor.matrix,
        out=successor.out, bias=folded.bias,
        activation=folded.activation, sgemm_tag=folded.tag,
        tag=successor.tag), consumed + 1


def _try_elementwise_chain(ops: Sequence[PlanOp], i: int,
                           uses: Dict[int, int],
                           ) -> Optional[FusedElementwise]:
    """Pattern (c): a run of Elementwise/Activation ops, each feeding
    only the next."""
    if not isinstance(ops[i], (Elementwise, Activation)):
        return None
    stages: List = [ops[i]]
    j = i + 1
    while j < len(ops):
        current = stages[-1]
        candidate = ops[j]
        if not isinstance(candidate, (Elementwise, Activation)):
            break
        feeds = (candidate.source.vid == current.out.vid
                 if isinstance(candidate, Activation)
                 else current.out.vid in (candidate.a.vid, candidate.b.vid))
        if not (feeds and _single_consumer(uses, current.out.vid)):
            break
        stages.append(candidate)
        j += 1
    if len(stages) < 2:
        return None
    return FusedElementwise(stages=tuple(stages), out=stages[-1].out)


def fuse_plan(plan: ExecutionPlan, policy: FusionPolicy) -> ExecutionPlan:
    """Apply ``policy``'s fusion patterns to ``plan``.

    Returns a new, validated plan (``plan`` itself when nothing fuses
    or the policy is empty).  The fused plan records its decisions in
    ``meta["fusion"]`` (pattern counts) and the unfused plan's
    :func:`structure_digest` in ``meta["fused_from"]`` for provenance;
    fused and unfused plans can never share a fingerprint or cache
    entry because their op streams differ.
    """
    if not policy.enabled:
        return plan
    uses = _use_counts(plan)
    ops = plan.ops
    fused_ops: List[PlanOp] = []
    counts = {pattern: 0 for pattern in PATTERNS}
    # Cross-layer legality is a plan-level fact: every layer must
    # aggregate as SpMM (the boundary pattern is transform -> next
    # layer's SpMM) and the plan must be unbatched (batched dense
    # transforms run segment-local, which a merged launch cannot).
    cross_layer_ok = (policy.cross_layer and plan.batch is None
                      and len(plan.layer_formats) >= 2
                      and all(fmt == "SpMM" for fmt in plan.layer_formats))
    i = 0
    while i < len(ops):
        if cross_layer_ok:
            merged = _try_cross_layer(ops, i, uses, plan.constants, policy)
            if merged is not None:
                fused_ops.append(merged[0])
                counts["cross_layer"] += 1
                i += merged[1]
                continue
        if policy.gather_scatter:
            fused = _try_gather_scatter(ops, i, uses)
            if fused is not None:
                fused_ops.append(fused)
                counts["gather_scatter"] += 1
                i += 2
                continue
        if policy.sgemm_epilogue:
            folded = _try_sgemm_epilogue(ops, i, uses, plan.constants)
            if folded is not None:
                fused_ops.append(folded[0])
                counts["sgemm_epilogue"] += 1
                i += folded[1]
                continue
        if policy.spmm_epilogue:
            folded = _try_spmm_epilogue(ops, i, uses, plan.constants)
            if folded is not None:
                fused_ops.append(folded[0])
                counts["spmm_epilogue"] += 1
                i += folded[1]
                continue
        if policy.elementwise_chain:
            chain = _try_elementwise_chain(ops, i, uses)
            if chain is not None:
                fused_ops.append(chain)
                counts["elementwise_chain"] += 1
                i += len(chain.stages)
                continue
        fused_ops.append(ops[i])
        i += 1

    if not any(counts.values()):
        return plan
    fused = ExecutionPlan(
        model=plan.model,
        flavor=plan.flavor,
        ops=tuple(fused_ops),
        inputs=plan.inputs,
        output=plan.output,
        constants=plan.constants,
        layer_formats=plan.layer_formats,
        meta={**plan.meta, "fusion": counts,
              "fused_from": structure_digest(plan)},
        batch=plan.batch,
    )
    fused.validate()
    return fused


def fusion_summary(plan: ExecutionPlan) -> Dict[str, int]:
    """The pattern counts recorded by :func:`fuse_plan` (empty dict for
    an unfused plan)."""
    fusion = plan.meta.get("fusion")
    return dict(fusion) if isinstance(fusion, dict) else {}


def describe_fusion(plan: ExecutionPlan,
                    policy: Optional[FusionPolicy]) -> str:
    """One-line fusion report for ``gsuite plan``."""
    if policy is None or not policy.enabled:
        return "fusion: off"
    labels = {"gather_scatter": "gather+scatter",
              "sgemm_epilogue": "sgemm-epilogue",
              "spmm_epilogue": "spmm-epilogue",
              "elementwise_chain": "elementwise-chain",
              "cross_layer": "cross-layer"}
    counts = fusion_summary(plan)
    applied = [f"{labels[pattern]} x{counts[pattern]}"
               for pattern in PATTERNS if counts.get(pattern)]
    if not applied:
        return f"fusion: on ({policy.source}), no fusable sites"
    return f"fusion: {', '.join(applied)} ({policy.source})"


def legacy_trace(launches) -> List[Tuple[str, str]]:
    """Expand a launch stream into the unfused ``(kernel, tag)`` sequence.

    Every fused launch declares the legacy launches it replaces
    (``replaces`` entries of the form ``"kernel:tag"``); expanding them
    in place yields exactly the sequence the unfused plan records —
    the documented trace-fingerprint mapping of plan-level fusion.
    Ordinary launches pass through unchanged.
    """
    trace: List[Tuple[str, str]] = []
    for launch in launches:
        if launch.replaces:
            for entry in launch.replaces:
                kernel, _, tag = entry.partition(":")
                trace.append((kernel, tag))
        else:
            trace.append((launch.kernel, launch.tag))
    return trace

"""Plan-level operator fusion: the dataflow pass over the IR.

The gSuite paper's central performance observation is that GNN
inference decomposes into *many small kernels* — and launch-bound
sequences of small kernels waste exactly the overheads a fused launch
amortises.  Now that every backend lowers onto the shared
:class:`~repro.plan.ir.ExecutionPlan` IR, fusion is a plan transform
instead of a per-backend rewrite.  :func:`fuse_plan` runs a
liveness/single-consumer analysis over the SSA op stream and merges,
at every legal site,

* **gather+scatter** — adjacent ``Gather`` + ``ScatterReduce`` pairs
  into one :class:`~repro.plan.ir.FusedGatherScatter` op — executed by
  the ``fusedGatherScatter`` kernel, which applies one CSR aggregation
  operator instead of materialising the ``[E, f]`` message matrix
  between two launches;
* **sgemm / spmm epilogue** — ``SGEMM`` or ``SpMM`` followed by a
  constant-vector ``add_bias`` and/or an ``Activation`` into one
  epilogue-carrying launch (cuBLAS-epilogue style: bias and activation
  fold into the launch);
* **elementwise chain** — chains of ``Elementwise`` / ``Activation``
  ops into one :class:`~repro.plan.ir.FusedElementwise` traversal.

All four stay inside a layer.  There is no policy object and nothing
is priced: the pass takes no argument but the plan, and it runs in
exactly one place — :func:`repro.plan.lowering.cached_plan`, right
after lowering — so every consumer of a backend build (``gsuite run``,
the serving layer, the tools) executes the same kernels.  ``fuse="off"``
(``--no-fuse``) skips the call and keeps the paper's Table II stream.

**Legality.**  A producer fuses into its consumer only when the
intermediate value has *exactly one* consumer and is not the plan
output — a value read by two ops (or escaping as the output) must stay
materialised, which the parity suite pins with explicit reuse cases.
Ops are only considered when adjacent in the op stream, which keeps
the fused plan's launch order aligned with the unfused plan's.

**Exactness.**  Fused execution is bit-for-bit identical to unfused
execution: the epilogue applies the same float32 arithmetic after the
same cast, the elementwise chain replays the original stages, and the
fused gather-scatter preserves every destination's reduction order
(see :func:`repro.core.kernels.sparse.fused_gather_scatter`).

**Trace mapping.**  Fused launches *declare the legacy launches they
replace* (:attr:`~repro.core.kernels.launch.KernelLaunch.replaces`);
:func:`legacy_trace` expands a recorded launch stream back into the
``(kernel, tag)`` sequence the unfused plan emits, which is how parity
tests pin trace equivalence across the fused/unfused boundary.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.plan.ir import (
    Activation,
    Elementwise,
    ExecutionPlan,
    FusedElementwise,
    FusedGatherScatter,
    Gather,
    PlanOp,
    ScatterReduce,
    SGEMM,
    SpMM,
)

__all__ = [
    "fuse_plan",
    "fusion_summary",
    "describe_fusion",
    "legacy_trace",
]

#: The fusion pattern names, in report order.
PATTERNS = ("gather_scatter", "sgemm_epilogue", "spmm_epilogue",
            "elementwise_chain")


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
    """``Gather`` at ``i`` + ``ScatterReduce`` at ``i+1``."""
    op = ops[i]
    if not isinstance(op, Gather) or i + 1 >= len(ops):
        return None
    successor = ops[i + 1]
    if not (isinstance(successor, ScatterReduce)
            and successor.source.vid == op.out.vid
            and _single_consumer(uses, op.out.vid)):
        return None
    return _gather_scatter_pair(op, successor)


def _gather_scatter_pair(gather: Gather,
                        scatter: ScatterReduce) -> FusedGatherScatter:
    """The one op a ``Gather`` and the ``ScatterReduce`` of its
    messages compute together."""
    return FusedGatherScatter(
        source=gather.source, src_index=gather.index,
        dst_index=scatter.index, out=scatter.out, scale=gather.scale,
        reduce=scatter.reduce, tag=scatter.tag, gather_tag=gather.tag)


def _try_epilogue(ops: Sequence[PlanOp], i: int, uses: Dict[int, int],
                  constants: Dict[int, object],
                  ) -> Optional[Tuple[Union[SGEMM, SpMM], int]]:
    """Fold a trailing bias add and/or activation into SGEMM / SpMM.

    The two ops share one epilogue contract (constant-vector bias, then
    activation, single consumer at every folded step).  Returns the
    epilogue-carrying op and the number of ops consumed, or ``None``
    when nothing folds.
    """
    op = ops[i]
    if not isinstance(op, (SGEMM, SpMM)) or op.activation:
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


def _try_elementwise_chain(ops: Sequence[PlanOp], i: int,
                           uses: Dict[int, int],
                           ) -> Optional[FusedElementwise]:
    """A run of Elementwise/Activation ops, each feeding only the next."""
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


def fuse_plan(plan: ExecutionPlan) -> ExecutionPlan:
    """Apply every fusion pattern to ``plan`` at every legal site.

    Returns a new, validated plan (``plan`` itself when nothing
    fuses).  The fused plan records its pattern counts in
    ``meta["fusion"]``; fused and unfused plans can never share a
    fingerprint because their op streams differ.
    """
    uses = _use_counts(plan)
    ops = plan.ops
    fused_ops: List[PlanOp] = []
    counts = {pattern: 0 for pattern in PATTERNS}
    i = 0
    while i < len(ops):
        fused = _try_gather_scatter(ops, i, uses)
        if fused is not None:
            fused_ops.append(fused)
            counts["gather_scatter"] += 1
            i += 2
            continue
        folded = _try_epilogue(ops, i, uses, plan.constants)
        if folded is not None:
            op, consumed = folded
            fused_ops.append(op)
            counts[f"{op.opcode}_epilogue"] += 1     # sgemm_ / spmm_
            i += consumed
            continue
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
    fused = replace(plan, ops=tuple(fused_ops),
                    meta={**plan.meta, "fusion": counts})
    fused.validate()
    return fused


def fusion_summary(plan: ExecutionPlan) -> Dict[str, int]:
    """The pattern counts recorded by :func:`fuse_plan` (empty dict for
    an unfused plan)."""
    fusion = plan.meta.get("fusion")
    return dict(fusion) if isinstance(fusion, dict) else {}


def describe_fusion(plan: ExecutionPlan) -> str:
    """One-line fusion report for ``gsuite plan``: the pattern counts,
    or ``fusion: off`` for a plan the pass did not rewrite."""
    labels = {"gather_scatter": "gather+scatter",
              "sgemm_epilogue": "sgemm-epilogue",
              "spmm_epilogue": "spmm-epilogue",
              "elementwise_chain": "elementwise-chain"}
    counts = fusion_summary(plan)
    applied = [f"{labels[pattern]} x{counts[pattern]}"
               for pattern in PATTERNS if counts.get(pattern)]
    return f"fusion: {', '.join(applied) or 'off'}"


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

"""The execution-plan layer: one operator IR shared by every backend,
and the passes and planners that transform and execute it.

Four subsystems compose here (see ``docs/architecture.md`` for the
full dataflow):

:mod:`~repro.plan.ir`
    The SSA operator vocabulary (``Gather`` / ``ScatterReduce`` /
    ``SpMM`` / ``SGEMM`` / ``Activation`` / ``Elementwise`` /
    ``Normalize`` plus the fused ops), the :class:`ExecutionPlan`
    container, the :class:`PlanBuilder` the lowering hooks drive, and
    the :class:`BatchSegmentMap` that marks batched multi-graph plans.
:mod:`~repro.plan.lowering`
    :func:`cached_plan` — lower, stamp the batch map of a batched
    workload, fuse: the finished plan every backend build runs.
    Nothing is stored; lowering is cheaper than a cache read.
:mod:`~repro.plan.planner`
    The cost-model decision procedures, one ``choose_*`` entry point
    per knob: :func:`choose_formats` (MP vs SpMM per layer) and
    :func:`choose_batching` (packed sweep width).  Both consume
    the same :class:`GraphStats` and the same :class:`CostProfile` of
    planner constants.
:mod:`~repro.plan.costprofile`
    :class:`CostProfile` — the versioned, persistable set of planner
    cost constants.  ``CostProfile.paper()`` (the paper's Fig. 5
    values) is the default; :func:`resolve_cost_profile` maps a
    ``--profile-costs`` value to it or to an explicitly passed profile
    file — the only two sources of planner constants.
:mod:`~repro.plan.fusion`
    :func:`fuse_plan`, the liveness/single-consumer rewrite merging
    gather+scatter pairs, SGEMM / SpMM epilogues and elementwise
    chains at every legal site (called by :func:`cached_plan` only), with
    :func:`legacy_trace` mapping fused launch streams back onto the
    unfused ``(kernel, tag)`` sequence.

The :class:`~repro.plan.executor.PlanExecutor` ties them together: it
interprets any (fused, batched, or both) plan in one op walk
through the instrumented core kernels, bit-for-bit identical to the
direct legacy paths, which is the contract the ``tests/plan`` parity
suites pin.
"""

from repro.plan.executor import (
    NORMALIZE_KINDS,
    PlanExecutor,
    describe_features,
    register_normalize,
)
from repro.plan.fusion import (
    describe_fusion,
    fuse_plan,
    fusion_summary,
    legacy_trace,
)
from repro.plan.ir import (
    Activation,
    BatchSegmentMap,
    Elementwise,
    ExecutionPlan,
    FORMATS,
    FusedElementwise,
    FusedGatherScatter,
    Gather,
    Normalize,
    PlanBuilder,
    ScatterReduce,
    SGEMM,
    SpMM,
    ValueRef,
)
from repro.plan.costprofile import (
    CostProfile,
    PROFILE_SCHEMA_VERSION,
    resolve_cost_profile,
)
from repro.plan.lowering import cached_plan
from repro.plan.planner import (
    BatchDecision,
    GraphStats,
    PlannerDecisions,
    batch_member_bytes,
    batch_member_footprint,
    choose_batching,
    choose_formats,
    explain_choice,
    mp_layer_cost,
    spmm_layer_cost,
    spmm_setup_cost,
)

__all__ = [
    "Activation",
    "BatchDecision",
    "BatchSegmentMap",
    "CostProfile",
    "Elementwise",
    "ExecutionPlan",
    "FORMATS",
    "FusedElementwise",
    "FusedGatherScatter",
    "Gather",
    "GraphStats",
    "NORMALIZE_KINDS",
    "Normalize",
    "PROFILE_SCHEMA_VERSION",
    "PlanBuilder",
    "PlanExecutor",
    "PlannerDecisions",
    "SGEMM",
    "ScatterReduce",
    "SpMM",
    "ValueRef",
    "batch_member_bytes",
    "batch_member_footprint",
    "cached_plan",
    "choose_batching",
    "choose_formats",
    "describe_features",
    "describe_fusion",
    "explain_choice",
    "fuse_plan",
    "fusion_summary",
    "legacy_trace",
    "mp_layer_cost",
    "register_normalize",
    "resolve_cost_profile",
    "spmm_layer_cost",
    "spmm_setup_cost",
]

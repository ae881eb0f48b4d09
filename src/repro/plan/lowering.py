"""Plan construction helper shared by the framework backends.

:func:`cached_plan` is where a backend build finishes its plan, and the
one caller of :func:`repro.plan.fusion.fuse_plan`, so ``gsuite run``,
the serving layer and the tools all execute the same kernels.  Nothing
is stored or fetched — lowering is cheaper than reading a plan back —
and the name stays only because the end-to-end harness binds it.
"""

from __future__ import annotations

from typing import Callable

from repro.plan.fusion import fuse_plan
from repro.plan.ir import BatchSegmentMap, ExecutionPlan

__all__ = ["cached_plan"]


def cached_plan(graph, build: Callable[[], ExecutionPlan],
                fuse: bool = True) -> ExecutionPlan:
    """Lower with ``build()``, stamp, and fuse the plan for ``graph``.

    Lowering is batch-agnostic; when ``graph`` is a
    :class:`~repro.graph.batch.BatchedGraph` the plan is stamped with
    its :class:`~repro.plan.ir.BatchSegmentMap` so the executor knows
    where the member row ranges lie.  ``fuse=False`` keeps the op
    stream as lowered — ``fuse="off"``'s Table II kernels, and always
    the PyG-like tape.
    """
    from repro.graph import BatchedGraph
    plan = build()
    if isinstance(graph, BatchedGraph):
        plan = plan.with_batch(BatchSegmentMap.from_graph(graph))
    return fuse_plan(plan) if fuse else plan

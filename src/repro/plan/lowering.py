"""Plan construction helpers shared by the framework backends.

Lowering is deterministic: a plan depends only on the pipeline spec
(model, geometry, seed — which fixes the weights) and the bound graph's
signature, never on feature *values*.  :func:`cached_plan` exploits
that through the persistent content-addressed cache
(:mod:`repro.cache`, kind ``"plan"``): repeated sweeps over the same
grid deserialise the finished plan instead of re-lowering.  (Backends
still construct their model/module objects per build — that cost is
part of each framework's measured character; only the lowering step is
skipped.)

"Finished" includes fusion: :func:`cached_plan` is the one caller of
:func:`repro.plan.fusion.fuse_plan`, between lowering and the store,
so a warm build neither lowers nor fuses and every consumer of a
backend build runs the same plan.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Callable, Dict, Optional

from repro.cache import compute_key, get_cache
from repro.plan.fusion import fuse_plan
from repro.plan.ir import ExecutionPlan

__all__ = ["graph_signature", "cached_plan"]

#: Plans above this constant payload are rebuilt instead of persisted:
#: lowering is cheaper than round-tripping tens of MB of embedded
#: weights through the pickle store (GIN's wide MLPs on CiteSeer-class
#: feature lengths are the offenders).
_MAX_PERSIST_BYTES = 4 * 1024 * 1024


def graph_signature(graph) -> Dict[str, object]:
    """The geometry a plan depends on (plans never embed graph data).

    For a :class:`~repro.graph.batch.BatchedGraph` the signature also
    carries every member's geometry: batched plans are a distinct cache
    flavor (same kind ``"plan"``, batched key), so a packed sweep and
    its per-graph members can never collide in the store — and two
    batches differing only in member order or membership get distinct
    keys too.
    """
    from repro.graph import BatchedGraph
    signature = {
        "name": graph.name,
        "num_nodes": graph.num_nodes,
        "num_edges": graph.num_edges,
        "num_features": graph.num_features,
    }
    if isinstance(graph, BatchedGraph):
        signature["batch"] = [
            {"name": member.name, "num_nodes": member.num_nodes,
             "num_edges": member.num_edges}
            for member in graph.members
        ]
    return signature


def cached_plan(flavor: str, spec, graph, build: Callable[[], ExecutionPlan],
                extra: Optional[Dict[str, object]] = None,
                fuse: bool = True) -> ExecutionPlan:
    """Fetch (or build and persist) the plan for one pipeline.

    Parameters
    ----------
    flavor:
        The lowering flavour (``"native"``, ``"pyg"``, ``"dgl"``,
        ``"adaptive"``) — part of the cache key because each backend
        lowers the same spec differently.
    spec:
        The :class:`~repro.frameworks.base.PipelineSpec`.
    graph:
        The workload graph; only its signature enters the key.
    build:
        Zero-argument callable producing the plan on a cache miss.
    extra:
        Additional key material (e.g. the adaptive planner's chosen
        formats).
    fuse:
        Run the fusion pass over the lowered plan (the default).
        ``False`` keeps the op stream as lowered — ``fuse="off"``'s
        Table II kernels, and always the PyG-like tape.  Part of the
        key, so the two arms of one cell never share an entry.

    When ``graph`` is a :class:`~repro.graph.batch.BatchedGraph`, the
    returned plan carries its :class:`~repro.plan.ir.BatchSegmentMap`
    (see :meth:`~repro.plan.ir.ExecutionPlan.with_batch`): lowering
    itself is batch-agnostic — the op stream is identical — but the
    stamped plan tells the executor where the member row ranges lie,
    and the key above already separates the batched flavor on disk.
    """
    from repro.graph import BatchedGraph
    from repro.plan.ir import BatchSegmentMap
    cache = get_cache()
    key = compute_key("plan", {
        "flavor": flavor,
        "spec": asdict(spec),
        "graph": graph_signature(graph),
        "extra": extra or {},
        "fuse": fuse,
    })
    plan = cache.get("plan", key)
    if plan is None:
        plan = build()
        if isinstance(graph, BatchedGraph):
            plan = plan.with_batch(BatchSegmentMap.from_graph(graph))
        if fuse:
            plan = fuse_plan(plan)
        if plan.constant_bytes() <= _MAX_PERSIST_BYTES:
            cache.put("plan", key, plan, meta={
                "flavor": flavor, "model": spec.model,
                "graph": graph.name or "custom",
                "batched": isinstance(graph, BatchedGraph),
            })
    elif isinstance(graph, BatchedGraph) and plan.batch is None:
        # Entries written before the batched flavor existed (or by a
        # by-hand put) still bind correctly: stamp the map on the way
        # out.
        plan = plan.with_batch(BatchSegmentMap.from_graph(graph))
    return plan

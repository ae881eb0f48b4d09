"""Work-conserving micro-batcher over the planner's batching budgets.

Queued requests group by :meth:`~repro.serve.requests.InferenceRequest
.compatibility_key` **plus the resolved graph's feature width** —
together everything the packed plan's arithmetic depends on, so a group
is always one width and every member runs the kernels its own shape
asks for.  The batcher never holds a request back
for traffic that may not come: whoever owns the worker asks
:meth:`MicroBatcher.due` **when the worker is free**, and gets the one
group to run next — the queue whose head arrived first, sliced at its
**budget**.  An idle service therefore answers a lone request at once
(a group of one), and a busy one batches exactly what queued behind the
running group.  The budget is what
:func:`repro.plan.planner.choose_batching` allows for the group's
width and its costliest member's statistics, so the serving path
can never pack a batch the offline planner would refuse.

The batcher is deliberately synchronous and clock-free (arrival order
is a counter): the asyncio service drives it
(:mod:`repro.serve.service`), and tests drive it call by call — no
sleeping, no threads, no flakiness.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ServeError
from repro.graph import Graph
from repro.serve.requests import InferenceRequest

__all__ = ["BatchGroup", "MicroBatcher", "group_budget"]


@dataclass
class _Pending:
    """One queued request with its resolved workload."""

    request: InferenceRequest
    graph: Graph
    arrival: int               # submit order, across every queue
    payload: Any = None        # caller cargo (the service parks futures here)


@dataclass
class BatchGroup:
    """One flushed batch: compatible members of one feature width."""

    key: Tuple
    entries: List[_Pending]
    reason: str                # "full" | "free" | "close"

    @property
    def size(self) -> int:
        return len(self.entries)


#: Stand-in "graphs available" count for capacity pricing: large enough
#: that :func:`~repro.plan.planner.choose_batching`'s ``num_graphs``
#: bound never binds and the returned size is the pure budget ceiling.
CAPACITY = 1 << 20


def group_budget(requests: List[InferenceRequest], graphs: List[Graph],
                 max_batch: Optional[int] = None,
                 profile=None, count: Optional[int] = None) -> int:
    """The planner's batch-size cap for one compatible group.

    Prices :func:`~repro.plan.planner.choose_batching` with the group's
    common feature width and a *conservative representative member*: the
    element-wise maximum of every member's
    :class:`~repro.plan.planner.GraphStats`.  A heterogeneous group is
    therefore never packed deeper than its costliest member alone would
    allow — the serving path stays inside the offline budgets.

    ``count`` is the ``num_graphs`` the planner prices for (default:
    the group size).  The batcher passes :data:`CAPACITY` to ask "how
    deep *could* members like these pack" independent of how many are
    queued right now — queue-length-bounded pricing would make every
    nonempty queue look batch-full.
    """
    from repro.core.models import get_model_class
    from repro.core.models.base import layer_dimensions
    from repro.plan.planner import GraphStats, choose_batching
    if not requests:
        return 1
    head = requests[0]
    width = graphs[0].num_features
    stats = [GraphStats.from_graph(g) for g in graphs]
    representative = GraphStats(
        num_nodes=max(s.num_nodes for s in stats),
        num_edges=max(s.num_edges for s in stats),
        feature_width=width,
        avg_degree=max(s.avg_degree for s in stats),
        density=max(s.density for s in stats),
        degree_skew=max(s.degree_skew for s in stats),
    )
    dims = layer_dimensions(width, head.hidden,
                            head.resolved_out_features(), head.num_layers)
    formats = [head.compute_model] * len(dims)
    return choose_batching(
        len(requests) if count is None else count, dims, representative,
        formats=formats,
        width_hook=get_model_class(head.model).aggregation_width,
        max_batch=max_batch, profile=profile)


class MicroBatcher:
    """FIFO request queues, grouped by compatibility and feature width,
    cut one group at a time for a free worker.

    Parameters
    ----------
    max_batch:
        The ``serve_batch`` knob: ``0`` lets :func:`group_budget`
        decide alone (planner auto), ``1`` disables batching (every
        request flushes as a group of one), ``N >= 2`` additionally
        caps groups at ``N`` (the planner budgets still apply — a cap
        can shrink a batch, never grow one).
    profile:
        Planner :class:`~repro.plan.costprofile.CostProfile` the
        budgets are priced under (``None`` = the resolution default).
    """

    def __init__(self, max_batch: int = 0, profile=None):
        if max_batch < 0:
            raise ServeError(
                f"max_batch must be >= 0 (0 = planner auto), got {max_batch}")
        self.max_batch = max_batch
        self.profile = profile
        self._queues: Dict[Tuple, List[_Pending]] = {}
        self._arrivals = itertools.count()

    # -- queueing ----------------------------------------------------------
    def __len__(self) -> int:
        return sum(len(q) for q in self._queues.values())

    def submit(self, request: InferenceRequest, payload: Any = None,
               graph: Optional[Graph] = None) -> None:
        """Queue one validated request (resolving its workload now, so
        a dataset typo can never surface mid-flush).

        The resolved graph's feature width completes the queue key; a
        graph without features has none and is refused here, to its own
        caller, instead of failing a budget or a pack later on.
        """
        if graph is None:
            graph = request.resolve_graph()
        if not graph.num_features:
            raise ServeError(
                f"request {request.request_id!r}: graph {graph.name!r} "
                f"carries no node features")
        entry = _Pending(request=request, graph=graph,
                         arrival=next(self._arrivals), payload=payload)
        key = request.compatibility_key() + (graph.num_features,)
        self._queues.setdefault(key, []).append(entry)

    # -- budgets -----------------------------------------------------------
    def budget(self, key: Tuple) -> int:
        """The batch *capacity* for ``key``'s queue, right now: how
        deep the planner lets members like these pack, independent of
        how many are queued.  The queue is batch-full once it reaches
        this."""
        queue = self._queues.get(key, [])
        if not queue:
            return 1
        if not queue[0].request.batchable:
            return 1               # adaptive traffic flushes solo
        cap = self.max_batch if self.max_batch >= 1 else None
        return group_budget([e.request for e in queue],
                            [e.graph for e in queue],
                            max_batch=cap, profile=self.profile,
                            count=CAPACITY)

    # -- flushing ----------------------------------------------------------
    def _cut_oldest(self, reason: Optional[str] = None) -> BatchGroup:
        """Cut one budget-sized group off the queue whose head arrived
        first (``reason`` defaults to whether the budget bound it)."""
        key = min(self._queues, key=lambda k: self._queues[k][0].arrival)
        queue = self._queues[key]
        budget = max(1, self.budget(key))
        if reason is None:
            reason = "full" if len(queue) >= budget else "free"
        entries, rest = queue[:budget], queue[budget:]
        if rest:
            self._queues[key] = rest
        else:
            del self._queues[key]
        return BatchGroup(key=key, entries=entries, reason=reason)

    def due(self) -> List[BatchGroup]:
        """The group a free worker should run now: none when idle, else
        exactly one.

        Call it only when the worker can start the group immediately —
        whatever stays queued keeps collecting co-batchable traffic for
        the next call, which is the only waiting a request ever does.
        """
        return [self._cut_oldest()] if self._queues else []

    def flush_all(self) -> List[BatchGroup]:
        """Drain every queue (service shutdown), in budget-sized slices."""
        groups: List[BatchGroup] = []
        while self._queues:
            groups.append(self._cut_oldest("close"))
        return groups

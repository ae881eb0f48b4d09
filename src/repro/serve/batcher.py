"""The inference service's request queue: first in, first out.

The service's worker thread asks :meth:`MicroBatcher.due` itself
**whenever it is free** and gets the oldest queued request, as a
:class:`BatchGroup` of one; an idle service therefore answers a lone
request at once, and a busy one answers the queue in arrival order.
Nothing is packed: every request runs alone.

The class and method names are the end-to-end harness's:
``benchmarks/e2e/tracing.py`` binds ``MicroBatcher.submit`` / ``due``
/ ``flush_all`` by name and reads a group's ``reason``, ``size`` and
``entries`` (ROADMAP item 1a renames them with the harness).

The queue is synchronous, clock-free and takes no lock of its own: the
service (:mod:`repro.serve.service`) calls ``submit`` on its event loop
thread and ``due`` / ``flush_all`` on its worker thread, always under
its one lock, and tests drive it call by call — no sleeping, no
threads, no flakiness.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, List

from repro.errors import ServeError
from repro.graph import Graph
from repro.serve.requests import InferenceRequest

__all__ = ["BatchGroup", "MicroBatcher"]


@dataclass
class _Pending:
    """One queued request with its resolved workload."""

    request: InferenceRequest
    graph: Graph
    payload: Any = None        # caller cargo (the service parks futures here)


@dataclass
class BatchGroup:
    """Requests cut for the worker: always exactly one."""

    entries: List[_Pending]
    reason: str                # "free" | "close"

    @property
    def size(self) -> int:
        return len(self.entries)


class MicroBatcher:
    """The FIFO queue of requests waiting for the single worker."""

    def __init__(self):
        self._queue = deque()

    def __len__(self) -> int:
        return len(self._queue)

    def submit(self, request: InferenceRequest, payload: Any = None) -> None:
        """Queue one validated request, resolving its workload now (so a
        dataset typo never surfaces on the worker).  A graph without
        features is refused here, to its own caller."""
        graph = request.resolve_graph()
        if not graph.num_features:
            raise ServeError(
                f"request {request.request_id!r}: graph {graph.name!r} "
                f"carries no node features")
        self._queue.append(_Pending(request, graph, payload))

    def due(self) -> List[BatchGroup]:
        """The request a free worker should run now: none when idle,
        else the oldest, as a group of one."""
        return [BatchGroup([self._queue.popleft()], "free")] \
            if self._queue else []

    def flush_all(self) -> List[BatchGroup]:
        """Drain the queue (service shutdown), one group per request, in
        arrival order."""
        groups = [BatchGroup([entry], "close") for entry in self._queue]
        self._queue.clear()
        return groups

"""The asyncio inference front end over the suite's execution path.

:class:`InferenceService` owns one :class:`~repro.serve.batcher
.MicroBatcher` and one single-worker thread executor.  ``submit`` is a
coroutine: the request queues, and a background drain task cuts the
next group **whenever the worker is free** — at once on an idle
service, otherwise the moment the running group finishes, batching
whatever queued behind it — and runs it on the worker thread, one
group at a time, so concurrent traffic can never interleave kernels
and execution stays deterministic.  Unpacked member outputs resolve
the per-request futures; an exception out of a group fails that
group's requests and nothing else.
"""

from __future__ import annotations

import asyncio
import json
import time
from typing import List, Optional

import numpy as np

from repro.core.config import SuiteConfig
from repro.errors import GSuiteError, ServeError
from repro.frameworks import get_backend
from repro.graph import BatchedGraph, Graph
from repro.serve.batcher import BatchGroup, MicroBatcher
from repro.serve.padding import pad_features
from repro.serve.requests import InferenceRequest, InferenceResponse

__all__ = ["InferenceService", "solo_reference", "serve_tcp"]


def solo_reference(request: InferenceRequest, pad_to: int = 0,
                   graph: Optional[Graph] = None) -> np.ndarray:
    """Execute ``request`` alone.

    This is the parity oracle for every response — batched or solo:
    each must equal ``solo_reference(request)`` bit-for-bit.
    ``pad_to`` runs the reference on zero-padded features instead; the
    service never does (the end-to-end harness still builds such
    references).
    """
    graph = request.resolve_graph() if graph is None else graph
    if pad_to and pad_to != graph.num_features:
        graph = pad_features(graph, pad_to)
    built = get_backend(request.framework).build(
        request.pipeline_spec(), graph)
    return built.run()


class InferenceService:
    """Micro-batching inference service (asyncio).

    Parameters
    ----------
    config:
        A :class:`~repro.core.config.SuiteConfig`; the serving knob
        is ``serve_batch`` (``0`` planner auto / ``1`` off / ``N``
        cap).  The pipeline fields of the config do **not** constrain
        requests — every request carries its own parameters.
    """

    def __init__(self, config: Optional[SuiteConfig] = None):
        self.config = config if config is not None else SuiteConfig()
        self.batcher = MicroBatcher(max_batch=self.config.serve_batch)
        self.solo = 0                     # requests executed alone
        self.batches: List[int] = []      # executed batch sizes, in order
        self._closing = False
        self._task: Optional[asyncio.Task] = None
        self._wake: Optional[asyncio.Event] = None
        self._pool = None

    # -- lifecycle ---------------------------------------------------------
    async def start(self) -> "InferenceService":
        """Spawn the drain task (idempotent)."""
        if self._task is None:
            from concurrent.futures import ThreadPoolExecutor
            self._pool = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="gsuite-serve")
            self._wake = asyncio.Event()
            self._closing = False
            self._task = asyncio.get_running_loop().create_task(
                self._drain())
        return self

    async def close(self) -> None:
        """Flush every queued request, then stop the drain task."""
        if self._task is None:
            return
        self._closing = True
        self._wake.set()
        await self._task
        self._task = None
        self._pool.shutdown(wait=True)
        self._pool = None

    async def __aenter__(self) -> "InferenceService":
        return await self.start()

    async def __aexit__(self, *exc) -> None:
        await self.close()

    # -- the request path --------------------------------------------------
    async def submit(self, request: InferenceRequest) -> InferenceResponse:
        """Queue one request; resolves when its result is served."""
        if self._task is None:
            raise ServeError("service is not started; use 'async with' "
                             "or await start() first")
        if self._closing:
            raise ServeError("service is closing; request refused")
        start = time.perf_counter()
        future = asyncio.get_running_loop().create_future()
        self.batcher.submit(request, payload=(future, start))
        self._wake.set()
        return await future

    # -- the drain loop ----------------------------------------------------
    async def _drain(self) -> None:
        """One group per turn, cut only when the worker is free to run
        it: requests that arrive meanwhile queue up behind it and form
        the next group."""
        loop = asyncio.get_running_loop()
        while True:
            groups = self.batcher.flush_all() if self._closing \
                else self.batcher.due()
            for group in groups:
                try:
                    results = await loop.run_in_executor(
                        self._pool, self._execute_group, group)
                except Exception as exc:
                    error = ServeError(
                        f"group of {group.size} failed in execution: "
                        f"{type(exc).__name__}: {exc}")
                    error.__cause__ = exc
                    results = [error] * group.size
                for entry, outcome in zip(group.entries, results):
                    future, started = entry.payload
                    if future.done():
                        continue
                    if isinstance(outcome, Exception):
                        future.set_exception(outcome)
                    else:
                        outcome.latency_s = time.perf_counter() - started
                        future.set_result(outcome)
            if groups:
                continue              # the worker just came free: look again
            if self._closing:
                return
            await self._wake.wait()
            self._wake.clear()

    # -- execution (worker thread) -----------------------------------------
    def _solo(self, entry):
        request, graph = entry.request, entry.graph
        try:
            output = solo_reference(request, graph=graph)
        except GSuiteError as exc:
            return exc
        self.solo += 1
        return InferenceResponse(
            request_id=request.request_id, output=output, source="solo",
            batch_size=1, padded_to=graph.num_features)

    def _execute_group(self, group: BatchGroup):
        """Run one flushed group; returns one outcome per entry, in order.

        A group is one feature width (it is part of the batcher's queue
        key), so every member — batched or solo — runs at its own width.
        """
        entries = group.entries
        if len(entries) == 1:
            return [self._solo(entries[0])]
        head = entries[0].request
        try:
            workload = BatchedGraph([e.graph for e in entries])
            packed = get_backend(head.framework).build(
                head.pipeline_spec(), workload).run()
        except GSuiteError as exc:
            return [exc] * len(entries)
        self.batches.append(len(entries))
        return [InferenceResponse(
                    request_id=entry.request.request_id, output=block,
                    source="batched", batch_size=len(entries),
                    padded_to=entry.graph.num_features)
                for block, entry in zip(workload.unpack(packed), entries)]

    # -- observability -----------------------------------------------------
    def stats(self) -> dict:
        """Service counters: how requests executed and batch shape."""
        batched = sum(self.batches)
        return {
            "responses": batched + self.solo,
            "batched": batched,
            "solo": self.solo,
            "batches": list(self.batches),
            "max_batch_size": max(self.batches) if self.batches else 1,
        }


#: Longest request line :func:`serve_tcp` accepts (asyncio's default).
MAX_REQUEST_LINE = 64 * 1024


async def _read_request_line(reader) -> Optional[bytes]:
    """The next request line; ``None`` for one over the limit.

    An over-long line is read off through its newline (in limit-sized
    bites), so closing afterwards does not reset the connection under
    the refusal with input still unread.
    """
    overlong = False
    while True:
        try:
            line = await reader.readuntil(b"\n")
        except asyncio.IncompleteReadError as exc:
            line = exc.partial            # EOF: b"" on a clean close
        except asyncio.LimitOverrunError as exc:
            await reader.readexactly(exc.consumed)
            overlong = True
            continue
        return None if overlong else line


async def serve_tcp(service: InferenceService, host: str = "127.0.0.1",
                    port: int = 0, max_requests: Optional[int] = None,
                    ready=None) -> int:
    """Serve JSON-lines requests over TCP until ``max_requests`` answered.

    One request object per line in, one response summary per line out
    (errors come back as ``{"error": ...}`` instead of killing the
    connection; a line over :data:`MAX_REQUEST_LINE` gets its error
    reply, then the connection closes).  ``ready`` is called with the
    bound ``(host, port)`` once listening — the CLI prints it, tests
    connect to it.  Returns the number of requests answered.
    """
    served = 0
    done = asyncio.Event()

    async def handle(reader, writer):
        nonlocal served
        try:
            while True:
                line = await _read_request_line(reader)
                if line == b"":
                    break
                try:
                    if line is None:
                        raise ServeError(f"request line exceeds "
                                         f"{MAX_REQUEST_LINE} bytes")
                    request = InferenceRequest.from_dict(json.loads(line))
                    response = await service.submit(request)
                    # allow_nan=False: an overflowed output is an error
                    # line, never a bare NaN/Infinity token on the wire.
                    reply = json.dumps(response.summary(), allow_nan=False)
                except (GSuiteError, ValueError) as exc:
                    reply = json.dumps({"error": str(exc)})
                writer.write(reply.encode() + b"\n")
                await writer.drain()
                served += 1
                finished = max_requests is not None and served >= max_requests
                if finished:
                    done.set()
                if finished or line is None:
                    break
        finally:
            writer.close()

    server = await asyncio.start_server(handle, host, port,
                                        limit=MAX_REQUEST_LINE)
    bound = server.sockets[0].getsockname()[:2]
    if ready is not None:
        ready(bound)
    async with server:
        if max_requests is None:
            await asyncio.Event().wait()      # serve forever
        else:
            await done.wait()
    return served

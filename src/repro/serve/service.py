"""The asyncio inference front end over the suite's execution path.

:class:`InferenceService` owns one FIFO request queue
(:class:`~repro.serve.batcher.MicroBatcher`) and one worker thread,
which drains the queue itself.  ``submit`` is a coroutine: the request
queues under the service's lock and wakes the worker if it sleeps.
The worker cuts the oldest request under that lock **whenever it is
free** — at once on an idle service, otherwise the moment the running
request finishes, without a round trip through the event loop — and
runs one request at a time, so concurrent traffic can never interleave
kernels and execution stays deterministic.  The event loop only
resolves each request's future (and stamps its latency) when the
worker hands the outcome back.  An exception out of a request fails
that request and nothing else.

Every request runs alone, on a **resident pipeline** where it can: the
service keeps the :class:`~repro.frameworks.base.BuiltPipeline` of each
recent dataset request, keyed by framework, pipeline spec and the
resolved graph object, in a least-recently-used table of
:data:`RESIDENT_PIPELINES` entries.  A recurring request calls
``run()`` on it, so it skips the model build (the seeded Glorot
draws), lowering and fusion; every kernel still launches and no output
is kept.  Inline-graph requests
(a fresh graph object each time) build afresh and are never held, nor
is a pipeline whose build or first run raised.  The table lives on the
single worker thread.  :func:`solo_reference` stays a fresh build: it
is the oracle each resident answer is checked against, bit for bit.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from collections import OrderedDict
from typing import Optional

import numpy as np

from repro.core.config import SuiteConfig
from repro.errors import GSuiteError, ServeError
from repro.frameworks import get_backend
from repro.serve.batcher import BatchGroup, MicroBatcher
from repro.serve.padding import pad_features
from repro.serve.requests import InferenceRequest, InferenceResponse

__all__ = ["InferenceService", "RESIDENT_PIPELINES", "solo_reference",
           "serve_tcp"]

#: Resident pipelines one service keeps, least recently used evicted
#: first.  A pipeline holds its graph, so this is also the number of
#: graphs the table can pin: the size of the dataset loader's graph
#: cache.
RESIDENT_PIPELINES = 8

#: How long an idle worker sleeps before it looks whether its event
#: loop was closed without :meth:`InferenceService.close`, so the thread
#: cannot outlive the loop (a parked pool thread would hang interpreter
#: exit).  A submit wakes the worker at once, whatever this is.
_IDLE_CHECK_S = 1.0


def solo_reference(request: InferenceRequest,
                   pad_to: int = 0) -> np.ndarray:
    """Execute ``request`` alone, on a freshly built pipeline.

    This is the parity oracle for every response, which a resident
    pipeline answers: each must equal ``solo_reference(request)``
    bit-for-bit.
    ``pad_to`` runs the reference on zero-padded features instead; the
    service never does (the end-to-end harness still builds such
    references).
    """
    graph = request.resolve_graph()
    if pad_to and pad_to != graph.num_features:
        graph = pad_features(graph, pad_to)
    built = get_backend(request.framework).build(
        request.pipeline_spec(), graph)
    return built.run()


class InferenceService:
    """Single-worker inference service (asyncio).

    Parameters
    ----------
    config:
        Accepted and ignored: every request carries its own parameters.
        The end-to-end harness passes a
        :class:`~repro.core.config.SuiteConfig` (ROADMAP item 1a).
    """

    def __init__(self, config: Optional[SuiteConfig] = None):
        self.batcher = MicroBatcher()
        self.solo = 0                     # requests answered with an output
        self.plan_cache_hits = 0          # runs on a resident pipeline
        self.pipelines_built = 0          # builds
        #: (framework, spec, graph) -> BuiltPipeline, least recent first;
        #: read and written on the worker thread only.
        self._resident: OrderedDict = OrderedDict()
        self._closing = False
        #: Guards the queue and ``_closing``; the worker sleeps on it.
        self._cond = threading.Condition()
        self._task: Optional[asyncio.Future] = None
        self._pool = None

    # -- lifecycle ---------------------------------------------------------
    async def start(self) -> "InferenceService":
        """Start the worker (idempotent)."""
        if self._task is None:
            from concurrent.futures import ThreadPoolExecutor
            self._pool = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="gsuite-serve")
            self._closing = False
            loop = asyncio.get_running_loop()
            self._task = loop.run_in_executor(self._pool, self._worker, loop)
        return self

    async def close(self) -> None:
        """Answer every queued request, then stop the worker."""
        if self._task is None:
            return
        with self._cond:
            self._closing = True
            self._cond.notify()
        await self._task
        self._task = None
        self._pool.shutdown(wait=True)
        self._pool = None

    async def __aenter__(self) -> "InferenceService":
        return await self.start()

    async def __aexit__(self, *exc) -> None:
        await self.close()

    # -- the request path (event loop) -------------------------------------
    async def submit(self, request: InferenceRequest) -> InferenceResponse:
        """Queue one request; resolves when its result is served."""
        if self._task is None:
            raise ServeError("service is not started; use 'async with' "
                             "or await start() first")
        if self._closing:
            raise ServeError("service is closing; request refused")
        start = time.perf_counter()
        future = asyncio.get_running_loop().create_future()
        with self._cond:
            self.batcher.submit(request, payload=(future, start))
            self._cond.notify()
        return await future

    @staticmethod
    def _resolve(group: BatchGroup, outcomes) -> None:
        """Settle a group's futures with the worker's outcomes; runs on
        the event loop, so ``latency_s`` spans submit to resolution."""
        for entry, outcome in zip(group.entries, outcomes):
            future, started = entry.payload
            if future.done():
                continue
            if isinstance(outcome, Exception):
                future.set_exception(outcome)
            else:
                outcome.latency_s = time.perf_counter() - started
                future.set_result(outcome)

    # -- the drain loop (worker thread) ------------------------------------
    def _worker(self, loop: asyncio.AbstractEventLoop) -> None:
        """Cut and run the oldest request whenever this thread is free;
        once :meth:`close` is called, run what is still queued and
        return."""
        while True:
            with self._cond:
                while not (self._closing or len(self.batcher)):
                    if loop.is_closed():
                        return        # the loop went away without close()
                    self._cond.wait(_IDLE_CHECK_S)
                groups = self.batcher.flush_all() if self._closing \
                    else self.batcher.due()
            if not groups:
                return                # closing, and the queue is empty
            for group in groups:
                try:
                    outcomes = self._execute_group(group)
                except Exception as exc:
                    error = ServeError(
                        f"request failed in execution: "
                        f"{type(exc).__name__}: {exc}")
                    error.__cause__ = exc
                    outcomes = [error] * group.size
                try:
                    loop.call_soon_threadsafe(self._resolve, group, outcomes)
                except RuntimeError:      # the loop is closed: nobody waits
                    return

    # -- execution (worker thread) -----------------------------------------
    def _solo(self, entry):
        """Run one request alone, on its resident pipeline if it has one.

        A hit only runs the built plan; a miss builds through
        ``get_backend(...).build`` as :func:`solo_reference` does and,
        for a dataset request whose run succeeded, keeps the pipeline.
        """
        request, graph = entry.request, entry.graph
        spec = request.pipeline_spec()
        key = (request.framework, spec, graph)
        try:
            built = self._resident.get(key)
            if built is not None:
                self._resident.move_to_end(key)
                output = built.run()
                self.plan_cache_hits += 1
            else:
                built = get_backend(request.framework).build(spec, graph)
                self.pipelines_built += 1
                output = built.run()
                if request.graph is None:
                    self._resident[key] = built
                    if len(self._resident) > RESIDENT_PIPELINES:
                        self._resident.popitem(last=False)
        except GSuiteError as exc:
            return exc
        self.solo += 1
        return InferenceResponse(
            request_id=request.request_id, output=output,
            padded_to=graph.num_features)

    def _execute_group(self, group: BatchGroup):
        """Run a cut group — always one request — through :meth:`_solo`;
        returns one outcome per entry.

        The group survives only because ``benchmarks/e2e/tracing.py``
        binds this method by name and reads the requests it serves
        (ROADMAP item 1a).
        """
        return [self._solo(entry) for entry in group.entries]

    # -- observability -----------------------------------------------------
    def stats(self) -> dict:
        """Service counters: requests answered, and how many of them a
        resident pipeline answered.  ``batched`` (always 0) and
        ``max_batch_size`` (always 1) stay because
        ``benchmarks/e2e/metrics.py`` reads them (ROADMAP item 1a)."""
        return {
            "batched": 0,
            "solo": self.solo,
            "max_batch_size": 1,
            "plan_cache_hits": self.plan_cache_hits,
            "pipelines_built": self.pipelines_built,
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

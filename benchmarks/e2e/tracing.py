"""Outside-in layer spans for the end-to-end benchmark.

Nothing under ``src/`` knows about tracing.  :func:`instrument` wraps
the layers' public callables for the duration of a ``with`` block and
restores the originals on exit; the wrappers record one :class:`Span`
per call into a :class:`Tracer`.  Kernel time is not wrapped — it comes
from the ``KernelLaunch.duration_s`` the kernels already record under
``record_launches`` and is attached to the enclosing
``plan.executor.run`` span as duration-only child spans.

The current span lives in a ``ContextVar``: each asyncio client task
and the service's worker thread have their own, so interleaved requests
never adopt each other's spans.  The worker thread cannot inherit a
request's context (``run_in_executor`` does not copy it), so the
``serve.service.execute`` span names the requests it serves in ``ref``
and :func:`aggregate` hangs it under each of their op spans.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import itertools
import sys
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext

__all__ = ["Span", "Tracer", "NullTracer", "instrument", "aggregate",
           "KERNELS", "SPAN_FIELDS"]

#: Kernel names of Table II plus the fused variants, as ``KernelLaunch.kernel``.
KERNELS = ("sgemm", "indexSelect", "scatter", "fusedGatherScatter", "spmm",
           "SpGEMM", "transformSpmm")

#: Spans that only give structure: their self time is what no layer
#: wrapper covers (``driver.unattributed_share``).
STRUCTURAL = ("op", "serve.service.execute")

SPAN_FIELDS = ("id", "name", "parent", "phase", "thread", "start", "dur",
               "ref")


class Span:
    """One timed call.  ``ref`` is the op id on an op root, the tuple of
    op ids served on a ``serve.service.execute`` span, else ``None``;
    ``start`` is ``None`` on duration-only kernel spans."""

    __slots__ = SPAN_FIELDS + ("_token",)

    def __init__(self, id, name, parent, phase, start, dur=0.0, ref=None):
        self.id = id
        self.name = name
        self.parent = parent
        self.phase = phase
        self.thread = threading.get_ident()
        self.start = start
        self.dur = dur
        self.ref = ref

    def row(self):
        return [getattr(self, field) for field in SPAN_FIELDS]


class NullTracer:
    """The untraced run's stand-in: every context is a no-op."""

    phase = "run"

    def op(self, op_id):
        return nullcontext()

    span = op


class Tracer:
    """In-memory span and counter store.

    ``phase`` is set by the driver — ``"setup"``, ``"run"`` (timed ops)
    or ``"warm"`` (the untimed warm pass of ``characterize``) — and is
    stamped on every span and counter, so per-op numbers are built from
    ``"run"`` alone.
    """

    def __init__(self):
        self.spans = []
        self.counts = Counter()          # (phase, name) -> total
        self.phase = "setup"
        self.op_roots = {}               # op id -> root Span
        self.enqueued = {}               # request id -> enqueue time
        self._ids = itertools.count(1)
        self._current = contextvars.ContextVar("e2e_span", default=None)

    def begin(self, name, ref=None):
        parent = self._current.get()
        span = Span(next(self._ids), name,
                    parent.id if parent is not None else None,
                    self.phase, time.perf_counter(), ref=ref)
        span._token = self._current.set(span)
        self.spans.append(span)
        return span

    def end(self, span):
        span.dur = time.perf_counter() - span.start
        self._current.reset(span._token)

    @contextmanager
    def span(self, name, ref=None):
        span = self.begin(name, ref)
        try:
            yield span
        finally:
            self.end(span)

    @contextmanager
    def op(self, op_id):
        """The root span of one timed op, findable by id while it runs
        (spans on other threads look their request's root up)."""
        with self.span("op", ref=op_id) as root:
            self.op_roots[op_id] = root
            yield

    def add(self, name, parent, dur, start=None):
        """A span measured elsewhere (kernel durations, queue waits)."""
        self.spans.append(Span(next(self._ids), name, parent, self.phase,
                               start, dur))

    def count(self, name, n=1):
        self.counts[self.phase, name] += n


# ---------------------------------------------------------------------------
# Wrappers
# ---------------------------------------------------------------------------

def _wrap(tracer, name, fn, hook=None):
    """``fn`` recorded as a ``name`` span.  ``hook(tracer, span, args,
    kwargs)`` runs before the call and may return a ``done(result)``
    callback that runs after the span has ended."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tracer.begin(name)
        done = hook(tracer, span, args, kwargs) if hook is not None else None
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(span)
        if done is not None:
            done(result)
        return result

    return wrapper


def _hook_cache_get(tracer, span, args, kwargs):
    cache, kind = args[0], args[1]
    stats = cache.stats
    before = (stats.hits, stats.misses, stats.corrupt)

    def done(result):
        hits = stats.hits - before[0]
        misses = stats.misses - before[1]
        tracer.count("cache.hits", hits)
        tracer.count("cache.misses", misses)
        tracer.count("cache.corrupt", stats.corrupt - before[2])
        if kind == "sim":
            tracer.count("gpu.simulator.cache_hits", hits)
        elif kind == "plan":
            # A plan-kind miss is exactly one lowering in cached_plan.
            tracer.count("plan.lowering.lowered", misses)
    return done


def _hook_cache_put(tracer, span, args, kwargs):
    stats = args[0].stats
    before = stats.stores
    return lambda result: tracer.count("cache.stores", stats.stores - before)


def _hook_fuse_plan(tracer, span, args, kwargs):
    from repro.plan.fusion import fusion_summary
    return lambda plan: tracer.count("plan.fusion.fused_sites",
                                     sum(fusion_summary(plan).values()))


def _hook_executor_run(tracer, span, args, kwargs):
    from repro.core.kernels import active_recorder
    plan = args[1] if len(args) > 1 else kwargs["plan"]
    tracer.count("plan.executor.ops", len(plan.ops))
    recorder = active_recorder()
    if recorder is None:
        return None
    first = len(recorder.launches)

    def done(result):
        for launch in recorder.launches[first:]:
            tracer.add(f"core.kernels.{launch.kernel}", span.id,
                       launch.duration_s)
            tracer.count("core.kernels.flops", launch.flops)
            tracer.count("core.kernels.bytes_moved",
                         launch.bytes_read + launch.bytes_written)
    return done


def _hook_simulate_all(tracer, span, args, kwargs):
    launches = args[1]
    tracer.count("gpu.simulator.launches", len(launches))

    def done(results):
        tracer.count("gpu.simulator.cycles", sum(r.cycles for r in results))
        tracer.count("gpu.simulator.instructions",
                     sum(r.issued_instructions for r in results))
    return done


def _hook_profile_all(tracer, span, args, kwargs):
    tracer.count("gpu.profiler.launches", len(args[1]))


def _hook_batcher_submit(tracer, span, args, kwargs):
    request = args[1]

    def done(result):
        tracer.enqueued[request.request_id] = time.perf_counter()
    return done


def _hook_batcher_cut(tracer, span, args, kwargs):
    """After ``due``/``flush_all``: queue waits and flush accounting."""

    def done(groups):
        cut = time.perf_counter()
        for group in groups:
            tracer.count(f"serve.batcher.flush_{group.reason}")
            tracer.count("serve.batcher.groups")
            tracer.count("serve.batcher.members", group.size)
            for entry in group.entries:
                request_id = entry.request.request_id
                enqueued = tracer.enqueued.pop(request_id, None)
                root = tracer.op_roots.get(request_id)
                if enqueued is not None and root is not None:
                    tracer.add("serve.batcher.queue_wait", root.id,
                               cut - enqueued, start=enqueued)
    return done


def _hook_pad(tracer, span, args, kwargs):
    graph, width = args[0], args[1]

    def done(padded):
        if padded is not graph:
            tracer.count("serve.padding.padded_bytes",
                         4 * graph.num_nodes * (width - graph.num_features))
    return done


def _hook_execute_group(tracer, span, args, kwargs):
    span.ref = tuple(entry.request.request_id for entry in args[1].entries)


#: (span name, module, attribute path, hook).  A dotted path names a
#: class attribute; a bare name is a module-level function, patched in
#: every loaded module that imported it by name (the workloads too).
_TARGETS = (
    ("datasets.load", "repro.datasets.loader", "load_dataset", None),
    ("core.pipeline.build", "repro.core.pipeline", "GNNPipeline.build", None),
    ("core.pipeline.record", "repro.core.pipeline", "GNNPipeline.record",
     None),
    ("core.models.build_model", "repro.core.models.registry", "build_model",
     None),
    ("plan.lowering.cached_plan", "repro.plan.lowering", "cached_plan", None),
    ("cache.get", "repro.cache", "TraceCache.get", _hook_cache_get),
    ("cache.put", "repro.cache", "TraceCache.put", _hook_cache_put),
    ("plan.planner.gates", "repro.plan.planner", "choose_formats", None),
    ("plan.planner.gates", "repro.plan.planner", "choose_fusion", None),
    ("plan.planner.gates", "repro.plan.planner", "choose_shards", None),
    ("plan.planner.gates", "repro.plan.planner", "choose_batching", None),
    ("plan.planner.graph_stats", "repro.plan.planner",
     "GraphStats.from_graph", None),
    ("plan.fusion.fuse_plan", "repro.plan.fusion", "fuse_plan",
     _hook_fuse_plan),
    ("plan.executor.run", "repro.plan.executor", "PlanExecutor.run",
     _hook_executor_run),
    ("gpu.simulator.simulate_all", "repro.gpu.simulator",
     "GpuSimulator.simulate_all", _hook_simulate_all),
    ("gpu.profiler.profile_all", "repro.gpu.profiler",
     "NvprofProfiler.profile_all", _hook_profile_all),
    ("serve.requests.resolve_graph", "repro.serve.requests",
     "InferenceRequest.resolve_graph", None),
    ("serve.batcher.submit", "repro.serve.batcher", "MicroBatcher.submit",
     _hook_batcher_submit),
    ("serve.batcher.due", "repro.serve.batcher", "MicroBatcher.due",
     _hook_batcher_cut),
    ("serve.batcher.due", "repro.serve.batcher", "MicroBatcher.flush_all",
     _hook_batcher_cut),
    ("serve.padding.pad", "repro.serve.padding", "pad_features", _hook_pad),
    ("graph.batch.pack", "repro.graph.batch", "BatchedGraph.__init__", None),
    ("graph.batch.unpack", "repro.graph.batch", "BatchedGraph.unpack", None),
    ("serve.service.execute", "repro.serve.service",
     "InferenceService._execute_group", _hook_execute_group),
)

#: Imported before patching, so no module can bind a wrapper by name at
#: import time and keep it after the originals are restored.
_MODULES = ("repro.bench.common", "repro.serve.service",
            "repro.serve.loadgen", "repro.frameworks.registry")


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def patch_sites():
    """Every ``(owner, attribute, original, span name, hook)`` to wrap.

    ``original`` is the raw ``__dict__`` entry (a ``classmethod`` object
    stays one), so restoring puts back the identical object.
    """
    for name in _MODULES:
        importlib.import_module(name)
    sites = []
    for span_name, module_name, path, hook in _TARGETS:
        module = importlib.import_module(module_name)
        if "." in path:
            owner_name, attr = path.split(".")
            owner = getattr(module, owner_name)
            sites.append((owner, attr, inspect.getattr_static(owner, attr),
                          span_name, hook))
            continue
        original = getattr(module, path)
        for loaded in list(sys.modules.values()):
            if getattr(loaded, "__dict__", {}).get(path) is original:
                sites.append((loaded, path, original, span_name, hook))
    from repro.frameworks.base import Backend
    for backend in _subclasses(Backend):
        if "build" in vars(backend):
            sites.append((backend, "build", vars(backend)["build"],
                          "frameworks.build", None))
    return sites


@contextmanager
def instrument(tracer):
    """Wrap every patch site for the duration of the block."""
    sites = patch_sites()
    try:
        for owner, attr, original, span_name, hook in sites:
            if isinstance(original, classmethod):
                wrapped = classmethod(_wrap(tracer, span_name,
                                            original.__func__, hook))
            else:
                wrapped = _wrap(tracer, span_name, original, hook)
            setattr(owner, attr, wrapped)
        yield sites
    finally:
        for owner, attr, original, _, _ in reversed(sites):
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

def _children(spans):
    """``parent id -> child spans``, with every ``serve.service.execute``
    span hung under the op root of each request it served."""
    roots = {span.ref: span for span in spans if span.name == "op"}
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
        elif span.name == "serve.service.execute":
            for op_id in span.ref:
                if op_id in roots:
                    children[roots[op_id].id].append(span)
    return children


def _self_time(span, children):
    return max(0.0, span.dur - sum(c.dur for c in children.get(span.id, ())))


def op_sum_errors(spans):
    """Per op: ``|sum of self times in its tree - op span| / op span``.

    Zero by construction when children nest inside their parents and
    siblings do not overlap; anything else means a span was attached to
    the wrong parent.
    """
    children = _children(spans)
    errors = []
    for root in spans:
        if root.name != "op" or root.dur <= 0:
            continue
        total, stack = 0.0, [root]
        while stack:
            span = stack.pop()
            total += _self_time(span, children)
            stack.extend(children.get(span.id, ()))
        errors.append(abs(total - root.dur) / root.dur)
    return errors


def aggregate(tracer):
    """Reduce the ``"run"`` spans to per-op layer figures.

    Returns ``(self_ms, total_ms, calls, unattributed_share, samples)``:
    the first three map span name to a per-op mean.  Times are taken
    from the request's side — a batch that served two requests counts
    in full for each — while ``calls`` is work done divided by ops.
    """
    spans = [s for s in tracer.spans if s.phase == "run"]
    children = _children(spans)
    samples = sum(1 for s in spans if s.name == "op")
    self_s, total_s, calls = Counter(), Counter(), Counter()
    # Walk down from the roots so a subtree knows how many ops wait on it.
    stack = [(s, len(s.ref) if s.name == "serve.service.execute" else 1)
             for s in spans if s.parent is None]
    while stack:
        span, weight = stack.pop()
        self_s[span.name] += weight * _self_time(span, children)
        total_s[span.name] += weight * span.dur
        calls[span.name] += 1
        stack.extend((child, weight) for child in children.get(span.id, ())
                     if child.name != "serve.service.execute")
    op_s = total_s["op"]
    unattributed = (sum(self_s[name] for name in STRUCTURAL) / op_s
                    if op_s else 0.0)
    per_op = max(1, samples)

    def scaled(counter, factor):
        return {name: value * factor / per_op
                for name, value in counter.items()}

    return (scaled(self_s, 1e3), scaled(total_s, 1e3), scaled(calls, 1),
            unattributed, samples)

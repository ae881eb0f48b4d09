"""Destination-range sharding of execution plans.

The aggregation kernels of every lowered plan — ``Gather`` +
``ScatterReduce`` pairs on the MP side, ``SpMM`` ops on the fused side —
reduce per-edge work into *destination-node* slots.  Destinations
partition cleanly: restricting the edge set (or the adjacency's rows)
to a contiguous destination range yields an independent sub-problem
whose output is exactly that range's rows.  This module exploits that
to split one plan's aggregation ops into ``K`` shard sub-plans plus a
merge step, so the Reddit/LiveJournal-class workloads whose per-edge
message matrices exceed a single process's comfortable working set can
execute piecewise — in-process (bounded peak memory, cache-sized
working sets) or fanned across the bench engine's
:class:`~repro.bench.pool.WorkerPool`.

The contract is **bit-for-bit parity** with unsharded execution, for
outputs *and* recorded traces:

* numeric parity holds because destination partitioning preserves each
  destination row's reduction sequence exactly (all in-edges of a node
  live in one shard, in original edge order; CSR row slices preserve
  per-row entry order), and the merge — one :func:`repro.core.kernels.
  scatter` over disjoint row ranges — copies rows without rounding;
* trace parity holds because shard workers record into their *own*
  recorders (kept on :attr:`PlanExecutor.shard_trace` for inspection)
  while the ambient recorder receives the **canonical** launch each
  logical op implies, emitted from the full operands through the same
  emitter functions the unsharded kernels use.  Sharded and unsharded
  runs therefore produce identical launch fingerprints, and the
  simulation/profile caches are shared between the two modes.

Fused plans (:mod:`repro.plan.fusion`) shard too: a
:class:`~repro.plan.ir.FusedGatherScatter` op shards exactly like the
pair it replaced, and for ``jobs == 1`` the dispatcher takes a *fused
slice-dispatch-merge* fast path — no per-shard sub-plans or binding
copies; one stable destination partition, the streaming kernel per
range, the scatter-kernel merge.

Batched multi-graph plans (:class:`~repro.plan.ir.BatchSegmentMap`)
shard transparently: the packed graph is one block-diagonal workload,
so shard ranges partition the *packed* node space and may split inside
a member graph — which is fine, because the parity argument above is
per-destination and never refers to graph boundaries.  Shard groups
cover aggregation ops only, so the executor's segment-local ``SGEMM``
handling applies to a sharded walk unchanged.

**Partitioners.**  *How* destinations split into contiguous ranges is
the policy's :attr:`ShardingPolicy.partitioner`
(:func:`partition_ranges` is the one place the choice is applied):

* ``"rows"`` — :func:`shard_ranges`, equal *row* counts.  On power-law
  graphs most edges land in the few hub-row shards, so K-way dispatch
  is bottlenecked by its heaviest shard.
* ``"edges"`` — :func:`edge_balanced_ranges`, a prefix-sum split over
  the per-row edge counts (for ``SpMM`` groups literally the CSR row
  pointer) placing each boundary on the first row whose cumulative
  edge count reaches ``E * k / K``.  Shards stay *contiguous* row
  ranges — every exactness property above carries over verbatim —
  but carry ~``E/K`` edges each with ragged row counts.

Both share the canonical-trace machinery, so recorded logical
traces stay partitioner-independent; shard-*local* tags carry the
partitioner so shard traces never alias across partitioners.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from importlib import import_module

from repro.core.kernels import record_launches, scatter
from repro.errors import PlanError
from repro.graph.formats import CSRMatrix
from repro.plan.ir import (
    ExecutionPlan,
    FusedGatherScatter,
    Gather,
    Normalize,
    PlanBuilder,
    ScatterReduce,
    SpMM,
)

# The kernel *modules* (the package re-exports shadow the submodule
# names with the kernel functions): home of the canonical launch
# emitters the dispatcher reuses for merged-trace parity.
_index_select_mod = import_module("repro.core.kernels.index_select")
_scatter_mod = import_module("repro.core.kernels.scatter")
_sparse_mod = import_module("repro.core.kernels.sparse")

__all__ = [
    "PARTITIONERS",
    "ShardingPolicy",
    "ShardGroup",
    "ShardDispatch",
    "shard_ranges",
    "edge_balanced_ranges",
    "partition_ranges",
    "plan_row_edges",
    "find_shard_groups",
    "build_shard_subplan",
    "ShardDispatcher",
]

#: The recognised :attr:`ShardingPolicy.partitioner` values.
PARTITIONERS = ("rows", "edges")


@dataclass(frozen=True)
class ShardingPolicy:
    """How a :class:`~repro.plan.executor.PlanExecutor` shards a plan.

    Parameters
    ----------
    num_shards:
        Destination-range shard count ``K`` (clamped to the node count
        at execution time; ``<= 1`` disables sharding).
    jobs:
        Worker processes for shard dispatch.  ``1`` (the default) runs
        shards in-process — still piecewise, which is what bounds peak
        memory and keeps per-shard working sets cache-sized — while
        ``> 1`` fans shards across a
        :class:`~repro.bench.pool.WorkerPool`.
    source:
        Where the shard count came from (``"forced"`` / ``"planner"``)
        — reporting only.
    partitioner:
        How destinations split into contiguous ranges: ``"rows"``
        (equal row counts) or ``"edges"`` (edge-balanced).  See the
        module docstring; both are bit-for-bit against unsharded
        execution.
    task_timeout:
        Per-shard-task deadline in seconds for pooled dispatch
        (``None`` = wait forever; dead workers are still detected).
        Passed through to the :class:`~repro.bench.pool.WorkerPool`.
    max_retries:
        Redispatch budget per shard task before it degrades to
        in-process execution in the parent.  Because shard tasks are
        pure, retried and degraded waves stay bit-for-bit identical to
        clean ones — supervision parameters never affect results.
    """

    num_shards: int
    jobs: int = 1
    source: str = "forced"
    partitioner: str = "rows"
    task_timeout: Optional[float] = None
    max_retries: int = 2

    def __post_init__(self):
        if self.partitioner not in PARTITIONERS:
            raise PlanError(
                f"unknown shard partitioner {self.partitioner!r}; "
                f"expected one of {PARTITIONERS}")
        if self.task_timeout is not None and self.task_timeout <= 0:
            raise PlanError(
                f"task_timeout must be positive or None, "
                f"got {self.task_timeout!r}")
        if self.max_retries < 0:
            raise PlanError(
                f"max_retries must be >= 0, got {self.max_retries!r}")


@dataclass(frozen=True)
class ShardGroup:
    """One shardable aggregation site inside a plan.

    ``kind`` is ``"mp"`` (an adjacent ``Gather`` → ``ScatterReduce``
    pair whose intermediate is used nowhere else), ``"spmm"`` (a
    single fused-aggregation op) or ``"fused"`` (a
    :class:`~repro.plan.ir.FusedGatherScatter` op from the fusion
    pass).  ``start`` is the first covered op position — the point in
    the op walk where the whole group executes.
    """

    kind: str
    start: int
    positions: Tuple[int, ...]
    gather: Optional[Gather] = None
    scatter: Optional[ScatterReduce] = None
    spmm: Optional[SpMM] = None
    fused: Optional[FusedGatherScatter] = None

    @property
    def agg_op(self):
        """The aggregation op that produces the group's row blocks."""
        if self.kind == "mp":
            return self.scatter
        return self.spmm if self.kind == "spmm" else self.fused

    @property
    def out_vid(self) -> int:
        """The SSA value id the merged result defines."""
        return self.agg_op.out.vid

    @property
    def tag(self) -> str:
        return self.agg_op.tag

    # -- mp/fused accessors (the two kinds share the dispatch path) ------
    @property
    def mp_refs(self):
        """``(source, src, dst, scale)`` refs of an mp/fused group."""
        if self.kind == "mp":
            return (self.gather.source, self.gather.index,
                    self.scatter.index, self.gather.scale)
        op = self.fused
        return (op.source, op.src_index, op.dst_index, op.scale)

    @property
    def reduce(self) -> str:
        return self.agg_op.reduce

    @property
    def gather_tag(self) -> str:
        return self.gather.tag if self.kind == "mp" else self.fused.gather_tag


@dataclass
class ShardDispatch:
    """Accounting for one sharded group execution (reporting only)."""

    tag: str
    kind: str
    num_shards: int
    edges_per_shard: Tuple[int, ...]
    seconds: float
    partitioner: str = "rows"


def shard_ranges(num_nodes: int, num_shards: int) -> List[Tuple[int, int]]:
    """Contiguous destination ranges partitioning ``[0, num_nodes)``.

    ``num_shards`` is clamped to ``[1, num_nodes]``; when the node count
    does not divide evenly the first ``num_nodes % K`` shards take one
    extra node (``np.array_split`` semantics), leaving the last shards
    ragged.
    """
    num_nodes = int(num_nodes)
    k = max(1, min(int(num_shards), max(1, num_nodes)))
    base, extra = divmod(num_nodes, k)
    ranges = []
    lo = 0
    for i in range(k):
        hi = lo + base + (1 if i < extra else 0)
        ranges.append((lo, hi))
        lo = hi
    return ranges


def edge_balanced_ranges(row_edges: np.ndarray,
                         num_shards: int) -> List[Tuple[int, int]]:
    """Contiguous destination ranges carrying ~``E/K`` edges each.

    The prefix-sum split over the per-row edge counts (for CSR
    operands, literally over the row pointer): each interior boundary
    lands on the first row whose cumulative count reaches the
    ``E * k / K`` target, then is clamped so every shard keeps at least
    one row — row counts go ragged but per-shard edge work evens out.
    Same clamping contract as :func:`shard_ranges` (never more shards
    than rows, never an empty shard), and an all-zero ``row_edges``
    falls back to it — there is nothing to balance.
    """
    counts = np.asarray(row_edges, dtype=np.int64)
    num_rows = int(counts.size)
    k = max(1, min(int(num_shards), max(1, num_rows)))
    total = int(counts.sum())
    if k == 1 or total == 0:
        return shard_ranges(num_rows, k)
    csum = np.cumsum(counts, dtype=np.int64)
    targets = total * np.arange(1, k, dtype=np.float64) / k
    cuts = np.searchsorted(csum, targets, side="left") + 1
    bounds = [0]
    for i, cut in enumerate(cuts):
        lo = bounds[-1] + 1
        hi = num_rows - (k - 1 - i)
        bounds.append(int(min(max(int(cut), lo), hi)))
    bounds.append(num_rows)
    return list(zip(bounds[:-1], bounds[1:]))


def _spmm_matrix(group: "ShardGroup", env: Dict[int, object]) -> CSRMatrix:
    """The CSR operand of an ``SpMM`` group (other formats refuse)."""
    matrix = env[group.spmm.matrix.vid]
    if not isinstance(matrix, CSRMatrix):
        raise PlanError(
            f"sharded spmm expects a CSRMatrix operand, got "
            f"{type(matrix).__name__}")
    return matrix


def _group_row_edges(group: "ShardGroup", env: Dict[int, object],
                     num_nodes: int) -> np.ndarray:
    """Per-destination-row edge counts of one shard group.

    ``SpMM`` groups read the CSR row pointer directly; mp/fused groups
    count destination-index occurrences — both are exactly the per-row
    work the edge-balanced boundaries equalise.
    """
    if group.kind == "spmm":
        return np.diff(np.asarray(_spmm_matrix(group, env).indptr))
    _, _, dst_ref, _ = group.mp_refs
    dst = np.asarray(env[dst_ref.vid])
    return np.bincount(dst, minlength=num_nodes)


def partition_ranges(partitioner: str, num_nodes: int, num_shards: int,
                     row_edges) -> List[Tuple[int, int]]:
    """The contiguous destination ranges ``partitioner`` implies.

    The one place a partitioner name turns into ranges — the dispatcher
    and ``gsuite plan`` both call it, so what the command reports is
    what runs.  ``row_edges`` is a zero-argument callable returning the
    per-row edge counts; only ``"edges"`` evaluates it (the even-row
    split never pays the O(E) count).
    """
    if partitioner == "rows":
        return shard_ranges(num_nodes, num_shards)
    return edge_balanced_ranges(row_edges(), num_shards)


def _shard_suffix(shard_index: int, num_shards: int,
                  partitioner: str = "rows") -> str:
    """The shard-local tag marker — carries non-default partitioners."""
    suffix = f"@shard{shard_index + 1}/{num_shards}"
    if partitioner != "rows":
        suffix += f"+{partitioner}"
    return suffix


def find_shard_groups(plan: ExecutionPlan) -> List[ShardGroup]:
    """The destination-shardable aggregation sites of ``plan``.

    A ``Gather`` qualifies only when the *immediately following* op is a
    ``ScatterReduce`` consuming its output and nothing else reads that
    intermediate — the adjacency requirement keeps the canonical merged
    trace in the same order the unsharded plan would emit.  ``SpMM``
    ops always qualify (their rows are destination nodes), and so do
    the fusion pass's ``FusedGatherScatter`` ops (destination-range
    partitioning is exactly the kernel's own blocking structure).
    """
    uses: Dict[int, int] = {}
    for op in plan.ops:
        for ref in op.operands():
            uses[ref.vid] = uses.get(ref.vid, 0) + 1
    uses[plan.output.vid] = uses.get(plan.output.vid, 0) + 1

    groups: List[ShardGroup] = []
    position = 0
    ops = plan.ops
    while position < len(ops):
        op = ops[position]
        group = None
        if isinstance(op, SpMM):
            group = ShardGroup("spmm", position, (position,), spmm=op)
        elif isinstance(op, FusedGatherScatter):
            group = ShardGroup("fused", position, (position,), fused=op)
        elif isinstance(op, Gather) and position + 1 < len(ops):
            successor = ops[position + 1]
            if (isinstance(successor, ScatterReduce)
                    and successor.source.vid == op.out.vid
                    and uses.get(op.out.vid, 0) == 1):
                group = ShardGroup(
                    "mp", position, (position, position + 1),
                    gather=op, scatter=successor)
        if group is None:
            position += 1
            continue
        groups.append(group)
        position = group.positions[-1] + 1
    return groups


def plan_row_edges(plan: ExecutionPlan, graph) -> Optional[np.ndarray]:
    """Per-row edge counts of ``plan``'s first shard group, pre-run.

    The counts the dispatcher will partition and report
    (:attr:`ShardDispatch.edges_per_shard`) come from the group's
    *operand* — a self-loop-augmented edge list, a normalised
    propagation matrix — not from the raw graph.  This resolves that
    operand without running the model: it evaluates only the
    ``Normalize`` ops ahead of the group whose inputs are themselves
    graph-derived.  Returns ``None`` when the plan has no shard group
    or the operand depends on a runtime input.
    """
    from repro.plan.executor import PlanExecutor
    groups = find_shard_groups(plan)
    if not groups:
        return None
    group = groups[0]
    operand = group.spmm.matrix if group.kind == "spmm" else group.mp_refs[2]
    env: Dict[int, object] = {}
    executor = PlanExecutor()
    for op in plan.ops[:group.start]:
        if isinstance(op, Normalize) \
                and all(ref.vid in env for ref in op.inputs):
            executor._execute(op, env, graph)
    if operand.vid not in env:
        return None
    return _group_row_edges(group, env, graph.num_nodes)


def build_shard_subplan(group: ShardGroup, lo: int, hi: int,
                        shard_index: int, num_shards: int,
                        partitioner: str = "rows") -> ExecutionPlan:
    """The self-contained sub-plan computing one shard of ``group``.

    Sub-plans bind their operands as runtime inputs (the dispatcher
    slices them), carry shard-annotated tags so shard-local traces stay
    distinguishable, and record their destination range in ``meta``.
    """
    builder = PlanBuilder(model="shard", flavor="shard")
    suffix = _shard_suffix(shard_index, num_shards, partitioner)
    if group.kind == "mp":
        source = builder.input("source", "dense")
        src = builder.input("src", "edge")
        scale = builder.input("scale", "vec") \
            if group.gather.scale is not None else None
        dst = builder.input("dst", "edge")
        messages = builder.gather(source, src, scale=scale,
                                  tag=group.gather.tag + suffix)
        out = builder.scatter_reduce(messages, dst,
                                     reduce=group.scatter.reduce,
                                     tag=group.scatter.tag + suffix)
    elif group.kind == "fused":
        source = builder.input("source", "dense")
        src = builder.input("src", "edge")
        scale = builder.input("scale", "vec") \
            if group.fused.scale is not None else None
        dst = builder.input("dst", "edge")
        out = builder.fused_gather_scatter(
            source, src, dst, scale=scale, reduce=group.fused.reduce,
            tag=group.fused.tag + suffix,
            gather_tag=group.fused.gather_tag + suffix)
    elif group.kind == "spmm":
        matrix = builder.input("matrix", "csr")
        dense = builder.input("dense", "dense")
        bias = builder.input("bias", "vec") \
            if group.spmm.bias is not None else None
        out = builder.spmm(matrix, dense, bias=bias,
                           activation=group.spmm.activation,
                           tag=group.spmm.tag + suffix)
    else:  # pragma: no cover - guarded by find_shard_groups
        raise PlanError(f"unknown shard group kind {group.kind!r}")
    return builder.build(out, meta={
        "kind": group.kind, "lo": int(lo), "hi": int(hi),
        "shard": int(shard_index), "num_shards": int(num_shards),
        "partitioner": partitioner,
    })


class _ShardView:
    """Minimal graph stand-in bound to a shard sub-plan.

    Sub-plans contain no ``Normalize`` ops, so the executor only reads
    ``num_nodes`` (the scatter's ``dim_size``) — here the shard's row
    count.
    """

    def __init__(self, num_nodes: int):
        self.num_nodes = int(num_nodes)


class _OperandShape:
    """Geometry-only operand stand-in for the canonical launch emitters.

    The kernel ``_emit`` helpers read ``size`` / ``shape`` / ``ndim``
    from outputs (and from scatter's source) — never the values — so the
    dispatcher can emit the canonical unsharded launch without
    materialising the full intermediate it describes.
    """

    def __init__(self, shape: Tuple[int, ...]):
        self.shape = tuple(int(dim) for dim in shape)
        self.ndim = len(self.shape)
        size = 1
        for dim in self.shape:
            size *= dim
        self.size = size


def _execute_shard_task(task):
    """Run one shard sub-plan; module-level so it pickles for the pool.

    Records the shard's launches into a private recorder (returned for
    the dispatcher's shard trace) when ``capture`` says an ambient
    recorder will consume them — launch synthesis is O(E) numpy work
    per kernel.
    """
    from repro.plan.executor import PlanExecutor
    subplan, bindings, num_rows, capture = task
    start = time.perf_counter()
    if capture:
        with record_launches() as recorder:
            out = PlanExecutor().run(subplan, _ShardView(num_rows), bindings)
        launches = recorder.launches
    else:
        out = PlanExecutor().run(subplan, _ShardView(num_rows), bindings)
        launches = []
    return out, launches, time.perf_counter() - start


class ShardDispatcher:
    """Executes a plan's shard groups over a worker pool and merges.

    Created per :meth:`PlanExecutor.run`; collects the per-shard and
    merge launches on :attr:`trace` and per-group accounting on
    :attr:`report`.
    """

    def __init__(self, policy: ShardingPolicy):
        self.policy = policy
        self.trace: List = []
        self.report: List[ShardDispatch] = []

    # -- group execution ---------------------------------------------------
    def execute_group(self, group: ShardGroup, env: Dict[int, object],
                      graph, pool, recorder) -> np.ndarray:
        """Shard, dispatch, merge and canonically trace one group."""
        start = time.perf_counter()
        shards = partition_ranges(
            self.policy.partitioner, graph.num_nodes, self.policy.num_shards,
            lambda: _group_row_edges(group, env, graph.num_nodes))
        capture = recorder is not None
        dispatch = self._dispatch_spmm if group.kind == "spmm" \
            else self._dispatch_mp
        outcomes, edges, emit_canonical = dispatch(
            group, env, shards, graph.num_nodes, capture, pool)
        merged = self._merge_rows([o[0] for o in outcomes], graph.num_nodes,
                                  group.tag, capture)
        for outcome in outcomes:
            self.trace.extend(outcome[1])
        if recorder is not None:
            emit_canonical(recorder)
        self.report.append(ShardDispatch(
            tag=group.tag, kind=group.kind, num_shards=len(shards),
            edges_per_shard=tuple(edges),
            seconds=time.perf_counter() - start,
            partitioner=self.policy.partitioner))
        return merged

    def _dispatch_mp(self, group, env, shards, num_nodes, capture, pool):
        """Run one Gather+ScatterReduce (or fused) group shard by shard."""
        source_ref, src_ref, dst_ref, scale_ref = group.mp_refs
        source = np.asarray(env[source_ref.vid])
        src = np.asarray(env[src_ref.vid])
        dst = np.asarray(env[dst_ref.vid])
        scale = None if scale_ref is None else np.asarray(env[scale_ref.vid])

        # Partition edge positions by destination shard in one stable
        # sort, preserving original edge order inside every shard — the
        # property that keeps per-destination reduction sequences (and
        # therefore float results) bit-for-bit identical.
        starts = np.fromiter((lo for lo, _ in shards),
                             dtype=np.int64, count=len(shards))
        order, counts, offsets = _scatter_mod.destination_partition(
            starts, dst)
        selections = [order[offsets[k]:offsets[k + 1]]
                      for k in range(len(shards))]
        operands = (source, src, dst, scale)
        if group.kind == "fused" and self.policy.jobs == 1:
            outcomes = self._run_fused_inprocess(
                group.fused, operands, shards, selections, capture)
        else:
            outcomes = pool.map(_execute_shard_task, self._mp_tasks(
                group, operands, shards, selections, capture))

        def emit_canonical(recorder):
            width = source.shape[1] if source.ndim == 2 else 1
            agg_shape = _OperandShape((num_nodes, width))
            if group.kind == "fused":
                _sparse_mod._emit_fused_gather_scatter(
                    recorder, source, src, dst, agg_shape, scale,
                    group.reduce,
                    self._kernel_seconds(outcomes, "fusedGatherScatter"),
                    group.fused.tag, group.fused.gather_tag)
            else:
                message_shape = (src.size, width) if source.ndim == 2 \
                    else (src.size,)
                _index_select_mod._emit(
                    recorder, source, src, _OperandShape(message_shape), 0,
                    self._kernel_seconds(outcomes, "indexSelect"),
                    group.gather_tag)
                _scatter_mod._emit(
                    recorder, _OperandShape(message_shape), dst, agg_shape,
                    group.reduce,
                    self._kernel_seconds(outcomes, "scatter"), group.tag)

        return outcomes, counts.tolist(), emit_canonical

    def _run_fused_inprocess(self, op: FusedGatherScatter, operands, shards,
                             selections, capture):
        """Fused slice-dispatch-merge: the ``jobs == 1`` fast path.

        A :class:`~repro.plan.ir.FusedGatherScatter` group needs none
        of the pooled machinery — no per-shard sub-plans, binding
        dicts or worker round-trips: each shard runs the fused kernel
        directly on index *views* of the one stable destination
        partition.
        """
        from repro.core.kernels.sparse import fused_gather_scatter
        source, src, dst, scale = operands
        outcomes = []
        for k, ((lo, hi), selection) in enumerate(zip(shards, selections)):
            suffix = _shard_suffix(k, len(shards), self.policy.partitioner)
            shard_start = time.perf_counter()

            def _run_shard():
                return fused_gather_scatter(
                    source, src[selection], dst[selection] - lo,
                    dim_size=hi - lo,
                    scale=None if scale is None else scale[selection],
                    reduce=op.reduce, tag=op.tag + suffix,
                    gather_tag=op.gather_tag + suffix)

            if capture:
                with record_launches() as shard_recorder:
                    rows = _run_shard()
                launches = shard_recorder.launches
            else:
                rows = _run_shard()
                launches = []
            outcomes.append((rows, launches,
                             time.perf_counter() - shard_start))
        return outcomes

    def _mp_tasks(self, group, operands, shards, selections, capture):
        """Slice one Gather+ScatterReduce (or fused) group into tasks."""
        source, src, dst, scale = operands
        compact = self.policy.jobs > 1
        tasks = []
        for k, ((lo, hi), selection) in enumerate(zip(shards, selections)):
            src_k = src[selection]
            bindings = {"dst": dst[selection] - lo}
            if compact:
                # Ship only the source rows this shard dereferences, so
                # worker memory scales with the shard, not the graph.
                needed = np.unique(src_k)
                bindings["source"] = source[needed]
                bindings["src"] = np.searchsorted(needed, src_k)
            else:
                bindings["source"] = source
                bindings["src"] = src_k
            if scale is not None:
                bindings["scale"] = scale[selection]
            tasks.append(self._task(group, bindings, lo, hi, k, len(shards),
                                    capture))
        return tasks

    def _dispatch_spmm(self, group, env, shards, num_nodes, capture, pool):
        """Run one SpMM op's row ranges as shard tasks."""
        op = group.spmm
        matrix = _spmm_matrix(group, env)
        dense = np.asarray(env[op.dense.vid])
        bias = None if op.bias is None else np.asarray(env[op.bias.vid])

        compact = self.policy.jobs > 1
        tasks = []
        edges = []
        for k, (lo, hi) in enumerate(shards):
            sliced = matrix.row_slice(lo, hi)
            edges.append(sliced.nnz)
            if compact:
                # Column-compact the slice so each worker receives only
                # the dense rows its shard's nonzeros dereference.
                needed = np.unique(sliced.indices)
                sliced = CSRMatrix(
                    sliced.indptr, np.searchsorted(needed, sliced.indices),
                    sliced.data, shape=(sliced.shape[0], needed.size))
                bindings = {"matrix": sliced, "dense": dense[needed]}
            else:
                bindings = {"matrix": sliced, "dense": dense}
            if bias is not None:
                # The epilogue bias is row-broadcast, so every shard
                # binds the same (small) vector.
                bindings["bias"] = bias
            tasks.append(self._task(group, bindings, lo, hi, k, len(shards),
                                    capture))

        outcomes = pool.map(_execute_shard_task, tasks)

        def emit_canonical(recorder):
            agg_shape = _OperandShape((num_nodes, dense.shape[1]))
            _sparse_mod._emit_spmm(
                recorder, matrix, dense, agg_shape,
                self._kernel_seconds(outcomes, "spmm"), op.tag,
                epilogue=op.activation or "")

        return outcomes, edges, emit_canonical

    def _task(self, group, bindings, lo, hi, shard_index, num_shards,
              capture):
        """One pickled shard task: sub-plan, operands, row count."""
        subplan = build_shard_subplan(group, lo, hi, shard_index, num_shards,
                                      partitioner=self.policy.partitioner)
        return subplan, bindings, hi - lo, capture

    # -- helpers -----------------------------------------------------------
    def _merge_rows(self, shard_outputs: List[np.ndarray], num_nodes: int,
                    tag: str, capture: bool) -> np.ndarray:
        """Merge disjoint shard row blocks through the scatter kernel.

        The shards are ascending contiguous ranges partitioning
        ``[0, num_nodes)``, so the stacked rows are already in order
        and the merge is an identity row placement (one contribution
        per slot — float exact).  It runs under a private recorder:
        the merge launch is sharded-runtime bookkeeping, captured on
        :attr:`trace` when an ambient recorder is active, never part
        of the canonical logical trace.
        """
        stacked = shard_outputs[0] if len(shard_outputs) == 1 \
            else np.concatenate(shard_outputs, axis=0)
        slots = np.arange(num_nodes, dtype=np.int64)
        if not capture:
            # No ambient recorder (capture mirrors its presence): the
            # kernel skips all trace synthesis on its own.
            return scatter(stacked, slots, dim_size=num_nodes,
                           reduce="sum", tag=f"{tag}@merge")
        with record_launches() as merge_recorder:
            merged = scatter(stacked, slots, dim_size=num_nodes,
                             reduce="sum", tag=f"{tag}@merge")
        self.trace.extend(merge_recorder.launches)
        return merged

    @staticmethod
    def _kernel_seconds(outcomes, kernel: str) -> float:
        """Summed shard-side duration of one kernel (trace bookkeeping)."""
        return float(sum(launch.duration_s
                         for outcome in outcomes
                         for launch in outcome[1]
                         if launch.kernel == kernel))

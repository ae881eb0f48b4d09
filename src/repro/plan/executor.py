"""Plan execution through the instrumented core kernels.

:class:`PlanExecutor` walks an :class:`~repro.plan.ir.ExecutionPlan`
op by op, binding the workload graph and runtime inputs, and dispatches
every operator to the instrumented kernels (``index_select`` /
``scatter`` / ``spmm`` / ``sgemm``, the fusion pass's streaming
``fused_gather_scatter`` — plus whatever kernels a
:class:`~repro.plan.ir.Normalize` kind launches internally, e.g. GCN's
SpGEMM normalisation chain).  Because the kernels are the same
functions the legacy direct paths called, kernel-level recording,
simulation and profiling keep working unchanged, and plan execution is
bit-for-bit identical to the direct code it replaced.

Every plan runs as one op walk.  A plan carrying a
:class:`~repro.plan.ir.BatchSegmentMap` binds a block-diagonal
:class:`~repro.graph.BatchedGraph` and runs its dense transforms
segment-local (see :meth:`PlanExecutor.run`); nothing else changes how
the walk executes.

``Normalize`` kinds are pluggable: backends register structure-
preparation callables in :data:`NORMALIZE_KINDS` via
:func:`register_normalize`.  Each callable receives
``(graph, params, inputs, tag)`` and returns a tuple with one entry per
declared output.

The gSuite-native kinds are pure functions of the graph, so what they
return is resident on it (:meth:`repro.graph.Graph.structure`) and a
second run over the same graph re-derives nothing; for the endpoint
kinds (:data:`RESIDENT_ENDPOINT_KINDS`) the executor also keeps the
destination-major :func:`~repro.core.kernels.reduction_structure` of
each output an aggregation op reduces over and, for a sum / mean whose
index and scale operands all come from those kinds, the CSR
:func:`~repro.core.kernels.aggregation_operator` it multiplies by, and
hands both to ``scatter`` / ``fused_gather_scatter``.  The ``pyg_*`` /
``dgl_*`` kinds model what those frameworks re-derive on every forward
and stay per-run: their kernels build the operator for each call.

The same goes for the one dense operand the graph owns: an ``SGEMM``
whose left operand *is* ``graph.features`` is handed the graph's
resident row-sparse form of it (:meth:`repro.graph.Graph.feature_rows`)
and multiplies over the stored entries only.  The direct reference
paths ask the same question of the same graph, so plan and direct take
the same route and stay bit-for-bit; the two routes themselves agree
to float32 reassociation (docs/architecture.md, "Parity contracts").
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Tuple

import numpy as np

from repro.core.kernels import (
    aggregation_operator,
    fused_gather_scatter,
    index_select,
    reduction_structure,
    scatter,
    sgemm,
    spmm,
)
from repro.core.models.activations import get_activation
from repro.errors import PlanError
from repro.graph import Graph, add_self_loops, gcn_edge_weights
from repro.plan.ir import (
    Activation,
    Elementwise,
    ExecutionPlan,
    FusedElementwise,
    FusedGatherScatter,
    Gather,
    Normalize,
    ScatterReduce,
    SGEMM,
    SpMM,
)

__all__ = ["PlanExecutor", "NORMALIZE_KINDS", "RESIDENT_ENDPOINT_KINDS",
           "describe_features", "register_normalize"]

#: Kind name -> ``fn(graph, params, inputs, tag) -> tuple`` registry.
NORMALIZE_KINDS: Dict[str, Callable] = {}

#: Input-free kinds whose outputs are per-edge arrays determined by the
#: graph alone — the index vectors whose reduction structure the
#: executor keeps on the graph.
RESIDENT_ENDPOINT_KINDS = frozenset(
    ("edge_endpoints", "self_loop_endpoints", "gcn_edge_weights"))


def register_normalize(kind: str, fn: Callable, overwrite: bool = False) -> None:
    """Register a structure-preparation callable for ``Normalize`` ops."""
    if kind in NORMALIZE_KINDS and not overwrite:
        raise PlanError(f"normalize kind {kind!r} already registered")
    NORMALIZE_KINDS[kind] = fn


# ---------------------------------------------------------------------------
# Built-in normalize kinds (model-zoo structure preparation)
# ---------------------------------------------------------------------------

def _norm_edge_endpoints(graph: Graph, params, inputs, tag):
    """Raw COO endpoints — GIN-MP aggregates over the plain edge list."""
    return graph.src, graph.dst


def _norm_self_loop_endpoints(graph: Graph, params, inputs, tag):
    """Endpoints of the self-loop-augmented edge list (SAGE / GAT)."""
    edge_index = add_self_loops(graph).edge_index
    return edge_index[0], edge_index[1]


def _norm_gcn_edge_weights(graph: Graph, params, inputs, tag):
    """GCN-MP per-edge ``1/sqrt(du dv)`` weights over ``A + I``."""
    edge_index, weight = gcn_edge_weights(graph)
    return edge_index[0], edge_index[1], weight


def _norm_gcn_propagation(graph: Graph, params, inputs, tag):
    """GCN-SpMM propagation matrix via the traced SpGEMM chain."""
    from repro.core.models.gcn import gcn_propagation_matrix
    return (gcn_propagation_matrix(graph, tag=tag),)


def _norm_gin_aggregate(graph: Graph, params, inputs, tag):
    """GIN-SpMM aggregation matrix ``A + (1 + eps) I`` in CSR form."""
    from repro.core.models.gin import gin_aggregate_matrix
    return (gin_aggregate_matrix(graph, float(params["epsilon"])),)


def _norm_mean_adjacency(graph: Graph, params, inputs, tag):
    """Row-normalised ``A-hat`` realising mean over ``N(v) + v``."""
    from repro.core.models.sage import mean_adjacency_matrix
    return (mean_adjacency_matrix(graph),)


def _norm_gat_attention(graph: Graph, params, inputs, tag):
    """Edge-softmax attention coefficients (kernel-composed).

    On a batched workload the score matvecs run segment-local (see
    :func:`~repro.core.models.gat.attention_coefficients`), keeping
    batched GAT plans bit-for-bit with their per-member runs.
    """
    from repro.core.models.gat import attention_coefficients
    from repro.graph import BatchedGraph
    h, src, dst, a_src, a_dst = inputs
    segments = graph.node_segments() \
        if isinstance(graph, BatchedGraph) else None
    return (attention_coefficients(h, src, dst, a_src, a_dst,
                                   graph.num_nodes, tag,
                                   segments=segments),)


def _norm_split_edges(graph: Graph, params, inputs, tag):
    """Split a runtime ``(2, E)`` edge index into endpoint arrays."""
    edge_index, = inputs
    return edge_index[0], edge_index[1]


# ---------------------------------------------------------------------------
# Backend-flavoured normalize kinds (PyG-like / DGL-like structures)
# ---------------------------------------------------------------------------

def _norm_pyg_gcn_norm(graph: Graph, params, inputs, tag):
    """PyG's uncached per-forward ``gcn_norm`` over a runtime edge index."""
    from repro.frameworks.pyg_like import _gcn_norm
    edge_index, = inputs
    full, weight = _gcn_norm(edge_index, graph.num_nodes)
    return full[0], full[1], weight


def _norm_pyg_sage_endpoints(graph: Graph, params, inputs, tag):
    """PyG SAGEConv's per-forward diagonal augmentation."""
    edge_index, = inputs
    diag = np.arange(graph.num_nodes, dtype=np.int64)
    full = np.hstack([edge_index, np.vstack([diag, diag])])
    return full[0], full[1]


def _norm_dgl_graph(graph: Graph, params, inputs, tag):
    """DGL's up-front multi-format graph object (built per run)."""
    from repro.frameworks.dgl_like import DGLGraphLike
    return (DGLGraphLike(graph),)


def _norm_dgl_normalized(graph: Graph, params, inputs, tag):
    dgl_graph, = inputs
    return (dgl_graph.normalized(),)


def _norm_dgl_mean_adjacency(graph: Graph, params, inputs, tag):
    dgl_graph, = inputs
    return (dgl_graph.mean_adjacency(),)


def _norm_dgl_plain(graph: Graph, params, inputs, tag):
    dgl_graph, = inputs
    return (dgl_graph.plain(),)


for _kind, _fn in (
        ("edge_endpoints", _norm_edge_endpoints),
        ("self_loop_endpoints", _norm_self_loop_endpoints),
        ("gcn_edge_weights", _norm_gcn_edge_weights),
        ("gcn_propagation", _norm_gcn_propagation),
        ("gin_aggregate", _norm_gin_aggregate),
        ("mean_adjacency", _norm_mean_adjacency),
        ("gat_attention", _norm_gat_attention),
        ("split_edges", _norm_split_edges),
        ("pyg_gcn_norm", _norm_pyg_gcn_norm),
        ("pyg_sage_endpoints", _norm_pyg_sage_endpoints),
        ("dgl_graph", _norm_dgl_graph),
        ("dgl_normalized", _norm_dgl_normalized),
        ("dgl_mean_adjacency", _norm_dgl_mean_adjacency),
        ("dgl_plain", _norm_dgl_plain),
):
    register_normalize(_kind, _fn)


def describe_features(plan: ExecutionPlan, graph: Graph,
                      resident: bool = True) -> str:
    """One-line report for ``gsuite plan``: the form in which the
    plan's first-layer ``sgemm`` will read the feature matrix.

    Asks :meth:`~repro.graph.Graph.feature_rows` exactly as
    :class:`PlanExecutor` does — per member for a batched plan — so the
    report is the decision, not a copy of its rule.  ``resident`` is
    false for a pipeline that binds a fresh copy of ``X`` on every run.
    """
    x = next((ref.vid for ref in plan.inputs if ref.name == "X"), None)
    if not any(isinstance(op, SGEMM) and op.a.vid == x for op in plan.ops):
        return "features: dense (no sgemm reads X)"
    if not resident:
        return "features: dense (X is re-materialised on every run)"
    batched = plan.batch is not None and plan.batch.num_graphs > 1
    members = graph.members if batched else [graph]
    kept = [rows for rows in (m.feature_rows(m.features) for m in members)
            if rows is not None]
    if not kept:
        size = max(1, sum(m.features.size for m in members))
        stored = sum(int(np.count_nonzero(m.features)) for m in members)
        return f"features: dense ({100.0 * stored / size:.3g} %)"
    size = sum(rows.shape[0] * rows.shape[1] for rows in kept)
    sparse_bytes = sum(rows.data.nbytes + rows.indices.nbytes
                       + rows.indptr.nbytes for rows in kept)
    share = "" if len(kept) == len(members) \
        else f" in {len(kept)} of {len(members)} members"
    return (f"features: row-sparse{share} (nnz/size "
            f"{100.0 * sum(r.nnz for r in kept) / max(1, size):.2f} %, "
            f"{size * kept[0].dtype.itemsize / 1e6:.1f} MB dense \u2192 "
            f"{sparse_bytes / 1e6:.1f} MB)")


class PlanExecutor:
    """Interprets :class:`ExecutionPlan` values over a bound graph.

    Parameters
    ----------
    on_op:
        Optional ``fn(op, result)`` observer invoked after each op —
        the PyG-like backend uses it to keep its autograd-style tape
        recording per-op bookkeeping exactly as before.
    """

    def __init__(self, on_op: Optional[Callable] = None):
        self.on_op = on_op
        #: Node segments of the currently bound batched plan (``None``
        #: while running unbatched plans — set per :meth:`run`).
        self._segments = None
        #: ``{vid: (kind, output position)}`` of the current run's
        #: :data:`RESIDENT_ENDPOINT_KINDS` outputs — set per :meth:`run`.
        self._resident: Dict[int, Tuple[str, int]] = {}

    def run(self, plan: ExecutionPlan, graph: Graph,
            inputs: Dict[str, Any]) -> np.ndarray:
        """Execute ``plan`` over ``graph``; returns the output array.

        A plan carrying a :class:`~repro.plan.ir.BatchSegmentMap`
        expects the matching block-diagonal packed graph: the sparse
        aggregation ops run once over the packed operands (their block
        structure already factors per member — same per-destination
        reduction order, hence bit-for-bit member outputs), while
        ``SGEMM`` launches run *segment-local* per member row range,
        because BLAS blocking varies with the row count and a packed
        GEMM is not guaranteed bitwise against the per-member launches
        (measured: float32 GEMMs over different row counts diverge in
        the last ulp).  A first layer over the packed feature matrix
        gives each member launch that member's resident rows
        (:meth:`_segmented_sgemm`).
        """
        self._segments = None
        self._resident = {}
        if plan.batch is None and getattr(graph, "num_graphs", 1) > 1:
            # The converse of the checks below: an unstamped plan over
            # a packed workload would run its dense transforms packed
            # (and GAT's graph-keyed attention matvecs segmented) —
            # a silent, half-segmented break of member parity.  Lower
            # through cached_plan (which stamps the map) or stamp
            # explicitly with ExecutionPlan.with_batch.
            raise PlanError(
                f"a BatchedGraph packing {graph.num_graphs} members "
                f"requires a batch-stamped plan, got one with batch=None"
            )
        if plan.batch is not None:
            if plan.batch.num_nodes != graph.num_nodes:
                raise PlanError(
                    f"batched plan packs {plan.batch.num_nodes} nodes "
                    f"but the bound graph has {graph.num_nodes}"
                )
            offsets = getattr(graph, "node_offsets", None)
            if offsets is None and plan.batch.num_graphs > 1:
                # A plain graph of coincidentally matching size would
                # pass the totals check, but graph-derived segmentation
                # (GAT's attention-score matvecs) would then run
                # packed — refuse rather than break member parity.
                raise PlanError(
                    f"batched plan ({plan.batch.num_graphs} members) "
                    f"must bind its matching BatchedGraph, got a plain "
                    f"{type(graph).__name__}"
                )
            if offsets is not None and tuple(
                    int(o) for o in offsets) != plan.batch.node_offsets:
                # A total-preserving repack would silently segment the
                # dense transforms at the wrong rows, voiding the
                # bit-for-bit member contract — refuse at bind time.
                raise PlanError(
                    f"batched plan member boundaries "
                    f"{plan.batch.node_offsets} do not match the bound "
                    f"graph's packing {tuple(int(o) for o in offsets)}"
                )
            if plan.batch.num_graphs > 1:
                self._segments = plan.batch.node_segments()
        env: Dict[int, Any] = dict(plan.constants)
        for ref in plan.inputs:
            if ref.name not in inputs:
                raise PlanError(
                    f"plan requires input {ref.name!r}; got "
                    f"{sorted(inputs)}"
                )
            env[ref.vid] = inputs[ref.name]
        unknown = set(inputs) - {ref.name for ref in plan.inputs}
        if unknown:
            raise PlanError(f"unexpected plan inputs: {sorted(unknown)}")

        for op in plan.ops:
            result = self._execute(op, env, graph)
            if self.on_op is not None:
                self.on_op(op, result)
        return env[plan.output.vid]

    # -- batched execution -------------------------------------------------
    def _segmented_sgemm(self, op: SGEMM, a, b, bias,
                         graph: Graph) -> np.ndarray:
        """Run one node-aligned ``SGEMM`` per member of a batched plan.

        Each launch sees exactly the row count the member's unbatched
        run would — the property that keeps batched dense transforms
        bit-for-bit — and carries a ``@graphI/B`` tag suffix so the
        per-member launches stay distinguishable in recorded traces.
        When ``a`` is the packed graph's own feature matrix, member
        ``i`` multiplies through *its* resident rows
        (:meth:`~repro.graph.Graph.feature_rows`), so the launch is
        that member's solo first-layer launch, route included.
        Zero-node members contribute an empty block and no arithmetic.
        """
        total = len(self._segments)
        resident = a is graph.features
        parts = []
        for i, (lo, hi) in enumerate(self._segments):
            member = graph.members[i]
            parts.append(sgemm(
                a[lo:hi], b, bias=bias,
                tag=f"{op.tag}@graph{i + 1}/{total}",
                activation=op.activation or None,
                rows=member.feature_rows(member.features)
                if resident else None))
        return np.concatenate(parts, axis=0)

    # -- op dispatch -------------------------------------------------------
    def _reduction_structure(self, index_ref, env: Dict[int, Any],
                             graph: Graph):
        """The graph-resident reduction structure of an index operand.

        ``None`` for an index the graph does not determine (a runtime
        edge index, a ``pyg_*`` per-forward structure): the kernel then
        builds its own for the call.
        """
        key = self._resident.get(index_ref.vid)
        if key is None:
            return None
        return graph.structure(
            ("reduction_structure",) + key,
            lambda: reduction_structure(env[index_ref.vid], graph.num_nodes))

    def _aggregation(self, env: Dict[int, Any], graph: Graph, reduce: str,
                     source, dst, src=None, scale=None):
        """``(structure, operator)`` for one aggregation op.

        ``structure`` is :meth:`_reduction_structure` of ``dst``.  The
        sum / mean ``operator`` is resident under ``("aggregation_
        operator", dst key, src key[, scale key])`` when every index and
        scale operand is a resident endpoint output; ``src=None`` is the
        unfused scatter's identity selection over its messages.  ``None``
        otherwise — the kernel then builds one for the call.
        """
        structure = self._reduction_structure(dst, env, graph)
        keys = tuple(self._resident.get(ref.vid)
                     for ref in (dst, src, scale) if ref is not None)
        if structure is None or reduce not in ("sum", "mean") \
                or None in keys:
            return structure, None
        if src is None:            # one column per materialised message
            columns, num_sources = None, env[dst.vid].shape[0]
        elif np.shape(source)[0] == graph.num_nodes:
            columns, num_sources = env[src.vid], graph.num_nodes
        else:
            return structure, None
        weights = None if scale is None else env[scale.vid]
        return structure, graph.structure(
            ("aggregation_operator",) + keys,
            lambda: aggregation_operator(structure, columns, weights,
                                         num_sources))

    def _execute(self, op, env: Dict[int, Any], graph: Graph):
        if isinstance(op, Gather):
            out = index_select(env[op.source.vid], env[op.index.vid],
                               tag=op.tag)
            if op.scale is not None:
                out = out * env[op.scale.vid][:, None]
            env[op.out.vid] = out
            return out
        if isinstance(op, ScatterReduce):
            source = env[op.source.vid]
            structure, operator = self._aggregation(
                env, graph, op.reduce, source, op.index)
            out = scatter(source, env[op.index.vid],
                          dim_size=graph.num_nodes, reduce=op.reduce,
                          tag=op.tag, structure=structure, operator=operator)
            env[op.out.vid] = out
            return out
        if isinstance(op, SpMM):
            bias = env[op.bias.vid] if op.bias is not None else None
            out = spmm(env[op.matrix.vid], env[op.dense.vid], bias=bias,
                       tag=op.tag, activation=op.activation or None)
            env[op.out.vid] = out
            return out
        if isinstance(op, FusedGatherScatter):
            source = env[op.source.vid]
            scale = env[op.scale.vid] if op.scale is not None else None
            structure, operator = self._aggregation(
                env, graph, op.reduce, source, op.dst_index, op.src_index,
                op.scale)
            out = fused_gather_scatter(
                source, env[op.src_index.vid],
                env[op.dst_index.vid], dim_size=graph.num_nodes,
                scale=scale, reduce=op.reduce, tag=op.tag,
                gather_tag=op.gather_tag, structure=structure,
                operator=operator)
            env[op.out.vid] = out
            return out
        if isinstance(op, SGEMM):
            bias = env[op.bias.vid] if op.bias is not None else None
            a = env[op.a.vid]
            if (self._segments is not None
                    and np.asarray(a).shape[0] == graph.num_nodes):
                out = self._segmented_sgemm(op, a, env[op.b.vid], bias,
                                            graph)
            else:
                out = sgemm(a, env[op.b.vid], bias=bias, tag=op.tag,
                            activation=op.activation or None,
                            rows=graph.feature_rows(a))
            env[op.out.vid] = out
            return out
        if isinstance(op, Activation):
            out = get_activation(op.function)(env[op.source.vid])
            env[op.out.vid] = out
            return out
        if isinstance(op, (Elementwise, FusedElementwise)):
            stages = op.stages if isinstance(op, FusedElementwise) else (op,)
            local: Dict[int, Any] = {}

            def _resolve(ref):
                return local[ref.vid] if ref.vid in local else env[ref.vid]

            out = None
            for stage in stages:
                if isinstance(stage, Activation):
                    out = get_activation(stage.function)(
                        _resolve(stage.source))
                else:
                    a, b = _resolve(stage.a), _resolve(stage.b)
                    out = a + b if stage.kind in ("add", "add_bias") \
                        else (1.0 + stage.alpha) * a + b  # combine
                local[stage.out.vid] = out
            env[op.out.vid] = out
            return out
        if isinstance(op, Normalize):
            try:
                fn = NORMALIZE_KINDS[op.kind]
            except KeyError:
                raise PlanError(
                    f"unknown normalize kind {op.kind!r}; known: "
                    f"{sorted(NORMALIZE_KINDS)}"
                ) from None
            resolved: Tuple = tuple(env[ref.vid] for ref in op.inputs)
            values = fn(graph, op.param_dict(), resolved, op.tag)
            if len(values) != len(op.outs):
                raise PlanError(
                    f"normalize {op.kind!r} produced {len(values)} values "
                    f"for {len(op.outs)} outputs"
                )
            for position, (ref, value) in enumerate(zip(op.outs, values)):
                env[ref.vid] = value
                if op.kind in RESIDENT_ENDPOINT_KINDS:
                    self._resident[ref.vid] = (op.kind, position)
            return values
        raise PlanError(f"unknown plan op {type(op).__name__}")

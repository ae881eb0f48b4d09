"""Plan execution through the instrumented core kernels.

:class:`PlanExecutor` walks an :class:`~repro.plan.ir.ExecutionPlan`
op by op, binding the workload graph and runtime inputs, and dispatches
every operator to the instrumented kernels (``index_select`` /
``scatter`` / ``spmm`` / ``sgemm``, the fusion pass's
``fused_gather_scatter`` — plus whatever kernels a
:class:`~repro.plan.ir.Normalize` kind launches internally, e.g. GCN's
SpGEMM normalisation chain).  Every launch goes through the
instrumented kernels, so kernel-level recording, simulation and
profiling see each plan's full Table II stream.

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
each output an aggregation op reduces over and, for an aggregation
whose index and scale operands all come from those kinds, the CSR
:func:`~repro.core.kernels.aggregation_operator` it multiplies by, and
hands both to ``scatter`` / ``fused_gather_scatter``.  The framework
backends' kinds (``split_edges``, ``pyg_gcn_norm``,
``pyg_sage_endpoints`` and ``dgl_graph``, whose ``structure`` param
names the conv's structure) model what those frameworks re-derive on
every forward and stay per-run: their kernels build the operator for
each call.

The same goes for the one dense operand the graph owns.  A run binds
``X`` as the graph stores it (:attr:`repro.graph.Graph.
stored_features`: the bag-of-words datasets' CSR, else a dense array),
and an ``SGEMM``, a ``FusedGatherScatter``, an ``SpMM`` or a ``Gather``
whose dense operand *is* the graph's ``X`` is handed the graph's
resident row-sparse form of it (:meth:`repro.graph.Graph.
feature_rows`).  The ``SGEMM`` multiplies over the stored entries only,
which agrees with the dense route to float32 reassociation.  A sum /
mean aggregation multiplies its operator by the rows where
:func:`~repro.core.kernels.takes_row_sparse` says so, which is bit for
bit the dense product (docs/architecture.md, "Parity contracts").
Where the rule says dense (NaN / inf rows, a ratio below 64), and for a
dense consumer such as gin's ``combine``, a row-sparse ``X`` is read
through its dense view (:attr:`repro.graph.Graph.features`), built on
that first read and kept by the graph.  An unfused ``Gather`` of ``X``
takes the same route split in two where the rule says its fused pair
would (the
gather's one consumer a ``ScatterReduce``): ``index_select``
gathers the stored entries into row-sparse messages and ``scatter``
reduces them, bit for bit the dense pair, so no ``[E, F]`` message
matrix is built.

A sum / mean over ``X`` (fused, unfused or ``SpMM``) taken that way is
an SpGEMM product a few per cent non-zero, and it is handed on as that
CSR — never densified — when :meth:`PlanExecutor._why_dense` finds
every consumer an ``SGEMM`` reading it as ``a`` through a weight that
narrows (``m < k``) and the value is not the plan output, and
:func:`~repro.graph.graph.row_sparse_enough` (the rule ``X`` itself is
kept by) holds for the product.  The ``SGEMM`` then multiplies over its
stored entries, as a first layer multiplies over ``X``'s.  Fused and
unfused plans hand on the same product, and a batched plan hands each
member's launch the product that member's solo run would.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Tuple

import numpy as np
import scipy.sparse as _sp

from repro.core.kernels import (
    ROW_SPARSE_RATIO,
    aggregation_operator,
    finite_rows,
    fused_gather_scatter,
    index_select,
    reduction_structure,
    row_sparse_ratio,
    scatter,
    sgemm,
    spmm,
    takes_row_sparse,
)
from repro.core.kernels.scatter import _row_sparse_product
from repro.core.models.activations import get_activation
from repro.errors import PlanError
from repro.graph import Graph, add_self_loops, gcn_edge_weights
from repro.graph.graph import ROW_SPARSE_STRIDE, row_sparse_enough
from repro.plan.fusion import _gather_scatter_pair, _single_consumer, \
    _use_counts
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
    """Endpoints of the self-loop-augmented edge list (SAGE)."""
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
    """DGL's up-front multi-format graph object (built per run) and the
    conv's cached ``structure`` read from it."""
    from repro.frameworks.dgl_like import DGLGraphLike
    return (getattr(DGLGraphLike(graph), params["structure"])(),)


for _kind, _fn in (
        ("edge_endpoints", _norm_edge_endpoints),
        ("self_loop_endpoints", _norm_self_loop_endpoints),
        ("gcn_edge_weights", _norm_gcn_edge_weights),
        ("gcn_propagation", _norm_gcn_propagation),
        ("gin_aggregate", _norm_gin_aggregate),
        ("mean_adjacency", _norm_mean_adjacency),
        ("split_edges", _norm_split_edges),
        ("pyg_gcn_norm", _norm_pyg_gcn_norm),
        ("pyg_sage_endpoints", _norm_pyg_sage_endpoints),
        ("dgl_graph", _norm_dgl_graph),
):
    register_normalize(_kind, _fn)


#: Each op that can read ``X``: the kernel it launches, as launch
#: records name it, and the field holding its dense operand.
_X_READERS = {SGEMM: ("sgemm", "a"),
              FusedGatherScatter: ("fusedGatherScatter", "source"),
              SpMM: ("spmm", "dense"),
              Gather: ("indexSelect", "source")}


def describe_features(plan: ExecutionPlan, graph: Graph,
                      resident: bool = True) -> str:
    """Report for ``gsuite plan``: whether the graph keeps a resident
    row-sparse form of the feature matrix (and, when it does, whether
    a dense copy exists beside it: ``stored dense``, ``no dense view``
    or ``dense view built``), then one line per kernel
    that reads it (an ``sgemm``'s left operand, an aggregation's or a
    gather's source, an ``spmm``'s dense operand) and the form it will
    read.

    Asks :meth:`~repro.graph.Graph.feature_rows` and, for a sum / mean
    aggregation, an ``spmm`` or an unfused gather,
    :func:`~repro.core.kernels.takes_row_sparse` exactly as
    :class:`PlanExecutor` does — per member for a batched plan's
    ``sgemm``, over the operator the executor hands the kernel (a
    gather's: its fused pair's) — so the report is the decision, not a
    copy of its rule.  Then one line per ``sgemm`` whose ``a`` is a sum
    / mean of ``X``: the form it will read and why, from
    :meth:`PlanExecutor._why_dense` and the products
    :meth:`PlanExecutor._member_products` computes.  ``resident`` is
    false for a pipeline that binds a fresh copy of ``X`` on every run.
    """
    x = next((ref.vid for ref in plan.inputs if ref.name == "X"), None)
    readers = [op for op in plan.ops if type(op) in _X_READERS
               and getattr(op, _X_READERS[type(op)][1]).vid == x]
    if not readers:
        return "features: dense (no kernel reads X)"
    if not resident:
        return "features: dense (X is re-materialised on every run)"
    batched = plan.batch is not None and plan.batch.num_graphs > 1
    members = graph.members if batched else [graph]
    kept = [rows for rows in (m.feature_rows(m.stored_features)
                              for m in members) if rows is not None]
    if not kept:
        size = max(1, sum(m.stored_features.size for m in members))
        stored = sum(int(np.count_nonzero(m.stored_features))
                     for m in members)
        header = f"features: dense ({100.0 * stored / size:.3g} %)"
    else:
        size = sum(rows.shape[0] * rows.shape[1] for rows in kept)
        sparse_bytes = sum(rows.data.nbytes + rows.indices.nbytes
                           + rows.indptr.nbytes for rows in kept)
        header = (f"features: row-sparse{_share(kept, members)} (nnz/size "
                  f"{100.0 * sum(r.nnz for r in kept) / max(1, size):.2f} %, "
                  f"{size * kept[0].dtype.itemsize / 1e6:.1f} MB dense "
                  f"\u2192 {sparse_bytes / 1e6:.1f} MB; "
                  f"{_dense_views(members)})")
    rows = graph.feature_rows(graph.stored_features)
    executor = PlanExecutor()
    env = executor._structure_env(plan, graph, x)
    lines = [header]
    for op in readers:
        product = executor._fused_pair(op) \
            if isinstance(op, Gather) and rows is not None else op
        if isinstance(op, SGEMM):
            form = ("row-sparse" + _share(kept, members)) if kept \
                else "dense"
        elif rows is None:
            form = "dense"
        elif not finite_rows(rows):
            form = "dense (X stores NaN / inf)"
        elif product is None:
            form = "dense (its messages feed no single scatter)"
        else:
            operator = executor._product_operator(product, env, graph)
            form, sign = ("row-sparse", "\u2265") \
                if takes_row_sparse(operator, rows) else ("dense", "<")
            form += (f" (nnz\u00b7k / (nnz + expansion) = "
                     f"{row_sparse_ratio(operator, rows):.3g} {sign} "
                     f"{ROW_SPARSE_RATIO})")
        lines.append(f"  {_X_READERS[type(op)][0]} {op.tag}: {form}")
    segments = plan.batch.node_segments() if batched \
        else [(0, graph.num_nodes)]
    producers = {op.out.vid: op for op in plan.ops if hasattr(op, "out")}
    for op in plan.ops:
        aggregate = producers.get(op.a.vid) if isinstance(op, SGEMM) \
            else None
        product = None if aggregate is None \
            else executor._x_product(aggregate, env, graph)
        if product is not None:
            lines.append(f"  sgemm {op.tag} (aggregate of X): "
                         + executor._hand_off_form(aggregate, product, env,
                                                   graph, members, segments))
    return "\n".join(lines)


def _scaled(messages, scale: np.ndarray):
    """``messages * scale[:, None]``.  Row-sparse messages scale their
    stored entries in the dtype the dense product promotes to, and the
    consuming ``scatter`` casts to float32 as it casts dense messages:
    one rounding per message, as on the dense route."""
    if not _sp.issparse(messages):
        return messages * scale[:, None]
    return _sp.csr_matrix(
        (messages.data * np.repeat(scale, np.diff(messages.indptr)),
         messages.indices, messages.indptr), shape=messages.shape)


def _dense_x(value, graph: Graph):
    """``value`` as a dense reader reads it: the graph's dense view
    (:attr:`~repro.graph.Graph.features`) when ``value`` is its
    row-sparse ``X``.  The one place a run builds that view: for a
    dense consumer (gin's ``combine``) or an aggregation whose rule
    says dense."""
    return graph.features if value is graph.stored_features else value


def _handed(a):
    """The form an ``sgemm`` reads a kept aggregate in: row-sparse while
    :func:`~repro.graph.graph.row_sparse_enough` holds for it, densified
    otherwise (the hand-off's density rule, asked per launch)."""
    if _sp.issparse(a) and not row_sparse_enough(a.nnz, *a.shape):
        return a.toarray()
    return a


def _dense_views(members) -> str:
    """Whether the dense ``X`` exists beside the row-sparse one, for
    ``gsuite plan``'s header: ``stored dense`` for a graph that keeps
    ``X`` dense, else whether its dense view has been built."""
    sparse = [m for m in members if _sp.issparse(m.stored_features)]
    if not sparse:
        return "stored dense"
    built = [m for m in sparse if m.dense_view_built]
    return f"dense view built{_share(built, sparse)}" if built \
        else "no dense view"


def _share(kept, members) -> str:
    return "" if len(kept) == len(members) \
        else f" in {len(kept)} of {len(members)} members"


class PlanExecutor:
    """Interprets :class:`ExecutionPlan` values over a bound graph.

    Parameters
    ----------
    on_op:
        Optional ``fn(op, result)`` observer invoked after each op —
        the PyG-like backend uses it to keep its autograd-style tape
        recording per-op bookkeeping exactly as before.  ``result`` is
        a SciPy CSR for a ``Gather`` of ``X`` that takes the row-sparse
        route and for an aggregate of ``X`` handed on row-sparse; the
        PyG-like tape never sees one, because that backend binds a
        fresh copy of ``X`` on every run and so has no resident form to
        gather from.
    """

    def __init__(self, on_op: Optional[Callable] = None):
        self.on_op = on_op
        #: The plan of the current run and its use counts, counted on
        #: the first :meth:`_fused_pair` of the run — set per :meth:`run`.
        self._plan: Optional[ExecutionPlan] = None
        self._uses: Optional[Dict[int, int]] = None
        #: Node segments of the currently bound batched plan (``None``
        #: while running unbatched plans — set per :meth:`run`).
        self._segments = None
        #: ``{vid: (kind, output position)}`` of the current run's
        #: :data:`RESIDENT_ENDPOINT_KINDS` outputs — set per :meth:`run`.
        self._resident: Dict[int, Tuple[str, int]] = {}
        #: ``{vid: per-member products}`` of a batched run's aggregates
        #: of ``X`` kept for their ``SGEMM`` (:meth:`_member_products`).
        self._kept: Dict[int, list] = {}

    def run(self, plan: ExecutionPlan, graph: Graph,
            inputs: Dict[str, Any]) -> np.ndarray:
        """Execute ``plan`` over ``graph``; returns the output array.

        A plan carrying a :class:`~repro.plan.ir.BatchSegmentMap`
        expects the matching block-diagonal packed graph: the sparse
        aggregation ops run once over the packed operands (their block
        structure already factors per member — same per-destination
        reduction order, hence bit-for-bit member outputs), while
        ``SGEMM`` launches run *segment-local* per member row range,
        because a packed GEMM is not guaranteed bitwise against the
        per-member launches: OpenBLAS runs a product of about 1 M
        multiply-adds or fewer through its small-matrix kernel, whose
        sums diverge in the last ulp from those of the same rows
        inside a larger GEMM (measured), and citation-sized members
        are that small.  Above that floor a row cut keeps the bits,
        which is what lets a large ``sgemm`` split its rows over the
        CPUs (:func:`~repro.graph.formats.row_parallel_product`).  A
        first layer over the packed feature matrix
        gives each member launch that member's resident rows
        (:meth:`_segmented_sgemm`).
        """
        self._segments = None
        self._resident, self._kept = {}, {}
        self._plan, self._uses = plan, None
        if plan.batch is None and getattr(graph, "num_graphs", 1) > 1:
            # The converse of the checks below: an unstamped plan over
            # a packed workload would run its dense transforms packed —
            # a silent break of member parity.  Lower through
            # cached_plan (which stamps the map) or stamp explicitly
            # with ExecutionPlan.with_batch.
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
                # pass the totals check, but it has no members for the
                # segment-local SGEMMs to read their resident rows from
                # (_segmented_sgemm) — refuse at bind time instead.
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
        return _dense_x(env[plan.output.vid], graph)

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
        that member's solo first-layer launch, route included; a kept
        aggregate of ``X`` gives it the product the member's solo run
        hands on (:meth:`_member_products`).  Zero-node members
        contribute an empty block and no arithmetic.
        """
        total = len(self._segments)
        resident = graph.is_features(a)
        kept = self._kept.get(op.a.vid)
        parts = []
        for i, (lo, hi) in enumerate(self._segments):
            member = graph.members[i]
            part = None
            if kept is not None:
                part = kept[i]
            elif resident:
                part = member.feature_rows(member.stored_features)
            if part is None:
                part = a[lo:hi].toarray() if _sp.issparse(a) else a[lo:hi]
            parts.append(sgemm(
                _handed(part), b, bias=bias,
                tag=f"{op.tag}@graph{i + 1}/{total}",
                activation=op.activation or None))
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

    def _aggregation(self, env: Dict[int, Any], graph: Graph, source, dst,
                     src=None, scale=None):
        """``(structure, operator)`` for one aggregation op.

        ``structure`` is :meth:`_reduction_structure` of ``dst``.  The
        ``operator`` is resident under ``("aggregation_
        operator", dst key, src key[, scale key])`` when every index and
        scale operand is a resident endpoint output; ``src=None`` is the
        unfused scatter's identity selection over its messages.  ``None``
        otherwise — the kernel then builds one for the call.
        """
        structure = self._reduction_structure(dst, env, graph)
        keys = tuple(self._resident.get(ref.vid)
                     for ref in (dst, src, scale) if ref is not None)
        if structure is None or None in keys:
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

    def _structure_env(self, plan: ExecutionPlan, graph: Graph,
                       x: int) -> Dict[int, Any]:
        """The plan's constants, ``X`` bound as a run binds it
        (:attr:`~repro.graph.Graph.stored_features`), and
        the output of every ``Normalize`` whose inputs those determine —
        what a run would hand the aggregation kernels, without running
        one."""
        self._resident = {}
        self._plan, self._uses = plan, None
        env: Dict[int, Any] = dict(plan.constants)
        env[x] = graph.stored_features
        for op in plan.ops:
            if isinstance(op, Normalize) \
                    and all(ref.vid in env for ref in op.inputs):
                self._execute(op, env, graph)
        return env

    def _product_operator(self, op, env: Dict[int, Any], graph: Graph):
        """The sparse operand a ``FusedGatherScatter`` or an
        ``SpMM`` multiplies its dense operand by: the resident operator
        :meth:`_aggregation` hands the kernel, or the one the kernel
        builds for the call."""
        if isinstance(op, SpMM):
            return env[op.matrix.vid]
        source = env[op.source.vid]
        structure, operator = self._aggregation(
            env, graph, source, op.dst_index, op.src_index, op.scale)
        if operator is not None:
            return operator
        dst = env[op.dst_index.vid]
        return aggregation_operator(
            structure or reduction_structure(dst, graph.num_nodes),
            env[op.src_index.vid],
            None if op.scale is None else env[op.scale.vid],
            source.shape[0])

    def _fused_pair(self, op: Gather) -> Optional[FusedGatherScatter]:
        """The op the fusion pass would make of ``op`` and the one
        consumer of its messages, when that consumer is a
        ``ScatterReduce``; ``None`` otherwise.  Single consumer by the
        fusion pass's own rule, over use counts taken on the run's
        first ask."""
        if self._uses is None:
            self._uses = _use_counts(self._plan)
        if not _single_consumer(self._uses, op.out.vid):
            return None
        consumer = next((c for c in self._plan.ops
                         if isinstance(c, ScatterReduce)
                         and c.source.vid == op.out.vid), None)
        return None if consumer is None \
            else _gather_scatter_pair(op, consumer)

    def _x_product(self, op, env: Dict[int, Any], graph: Graph):
        """The op whose operator multiplies ``X`` when ``op`` aggregates
        ``X`` — ``op`` itself (a ``FusedGatherScatter`` or an
        epilogue-free ``SpMM``), or the fused pair of the gather whose
        messages a ``ScatterReduce`` reduces (:meth:`_fused_pair`) —
        else ``None``."""
        if isinstance(op, ScatterReduce):
            gather = next((g for g in self._plan.ops if isinstance(g, Gather)
                           and g.out.vid == op.source.vid), None)
            if gather is None \
                    or not graph.is_features(env.get(gather.source.vid)):
                return None
            return self._fused_pair(gather)
        if isinstance(op, FusedGatherScatter):
            return op if graph.is_features(env.get(op.source.vid)) else None
        if isinstance(op, SpMM) and op.bias is None and not op.activation:
            return op if graph.is_features(env.get(op.dense.vid)) else None
        return None

    def _why_dense(self, op, env: Dict[int, Any]) -> str:
        """Why the aggregate ``op`` computes is densified before its
        consumers read it; ``""`` when its row-sparse product may be
        handed on: the value is not the plan output, and every consumer
        is an ``SGEMM`` reading it as ``a`` (and as nothing else)
        through a constant weight ``[k, m]`` that narrows, ``m < k``.
        Decided from the plan and the weights' shapes alone; the
        density rule is asked of each product (:func:`_handed`)."""
        vid = op.out.vid
        if vid == self._plan.output.vid:
            return "plan output"
        for consumer in self._plan.ops:
            reads = [ref.vid for ref in consumer.operands()].count(vid)
            if not reads:
                continue
            if not isinstance(consumer, SGEMM) or consumer.a.vid != vid \
                    or reads > 1:
                return "non-SGEMM consumer"
            if consumer.b.vid not in self._plan.constants:
                return "runtime weight"
            k, m = np.shape(env[consumer.b.vid])
            if m >= k:
                return f"{'square' if m == k else 'widens'}: {k} \u2192 {m}"
        return ""

    def _member_products(self, product, env: Dict[int, Any], graph: Graph,
                         members, segments, out=None) -> list:
        """What each member's solo run of the sum / mean of ``X`` that
        ``product`` multiplies (:meth:`_x_product`) hands its ``SGEMM``:
        the SpGEMM product where that run multiplies the member's
        resident rows, else ``None`` (dense).

        The member's own operator is its diagonal block of the packed
        one (same entries, same stored order), so
        :func:`~repro.core.kernels.takes_row_sparse` answers over it as
        the solo run does.  Rows of a row-sparse packed ``out`` are
        those products already; the others are multiplied here, so a
        member's launch never depends on how the packed aggregate was
        taken.
        """
        if isinstance(product, SpMM):
            operator, reduce = env[product.matrix.vid]._vendor(), "sum"
        else:
            operator = self._product_operator(product, env, graph)
            reduce = product.reduce
        counts = np.maximum(np.diff(operator.indptr), 1).astype(np.float32)
        products = []
        for member, (lo, hi) in zip(members, segments):
            rows = member.feature_rows(member.stored_features)
            block = operator[lo:hi, lo:hi]
            if not takes_row_sparse(block, rows):
                products.append(None)
            elif _sp.issparse(out):
                products.append(out[lo:hi])
            else:
                products.append(_row_sparse_product(
                    counts[lo:hi], block @ rows, reduce, keep=True))
        return products

    def _hand_off_form(self, op, product, env: Dict[int, Any], graph: Graph,
                       members, segments) -> str:
        """``gsuite plan``'s account of the form an ``SGEMM`` reads the
        aggregate ``op`` of ``X`` in, decided as a run decides it."""
        why = self._why_dense(op, env)
        if why:
            return f"dense ({why})"
        stored = [p for p in self._member_products(
            product, env, graph, members, segments) if p is not None]
        if not stored:
            return "dense (the aggregate is taken dense)"
        kept = [p for p in stored if row_sparse_enough(p.nnz, *p.shape)]
        counted = kept or stored
        percent = 100.0 * sum(p.nnz for p in counted) / max(
            1, sum(p.shape[0] * p.shape[1] for p in counted))
        if not kept:
            return (f"dense (product nnz/size {percent:.2f} % > "
                    f"1/{ROW_SPARSE_STRIDE})")
        return (f"row-sparse{_share(kept, members)} (product nnz/size "
                f"{percent:.2f} % \u2264 1/{ROW_SPARSE_STRIDE})")

    def _aggregated(self, op, out, keep: bool, product,
                    env: Dict[int, Any], graph: Graph):
        """Bind an aggregate's result; a batched run keeping it also
        keeps each member's product (:meth:`_member_products`)."""
        env[op.out.vid] = out
        if keep and self._segments is not None:
            self._kept[op.out.vid] = self._member_products(
                product, env, graph, graph.members, self._segments, out)
        return out

    def _routed(self, op, source, env: Dict[int, Any], graph: Graph):
        """``(operand, rows)`` for an aggregation, an ``SpMM`` or a
        gather reading ``source``: ``source`` and its resident
        row-sparse form (:meth:`~repro.graph.Graph.feature_rows`) where
        :func:`~repro.core.kernels.takes_row_sparse` holds for the
        operator that multiplies it — a gather's that of its fused pair
        (:meth:`_fused_pair`), so fused and unfused plans route alike;
        otherwise the dense matrix and no rows (:func:`_dense_x`: a
        row-sparse ``X``'s dense view, built on this first read)."""
        rows = graph.feature_rows(source)
        if rows is not None:
            product = self._fused_pair(op) if isinstance(op, Gather) else op
            if product is not None and takes_row_sparse(
                    self._product_operator(product, env, graph), rows):
                return source, rows
        return _dense_x(source, graph), None

    def _execute(self, op, env: Dict[int, Any], graph: Graph):
        if isinstance(op, Gather):
            source, rows = self._routed(op, env[op.source.vid], env, graph)
            out = index_select(source, env[op.index.vid], tag=op.tag,
                               rows=rows)
            if op.scale is not None:
                out = _scaled(out, env[op.scale.vid])
            env[op.out.vid] = out
            return out
        if isinstance(op, (ScatterReduce, SpMM, FusedGatherScatter)):
            product = self._x_product(op, env, graph)
            keep = product is not None and not self._why_dense(op, env)
        if isinstance(op, ScatterReduce):
            source = env[op.source.vid]
            structure, operator = self._aggregation(
                env, graph, source, op.index)
            out = scatter(source, env[op.index.vid],
                          dim_size=graph.num_nodes, reduce=op.reduce,
                          tag=op.tag, structure=structure, operator=operator,
                          row_sparse_out=keep)
            return self._aggregated(op, out, keep, product, env, graph)
        if isinstance(op, SpMM):
            bias = env[op.bias.vid] if op.bias is not None else None
            dense, rows = self._routed(op, env[op.dense.vid], env, graph)
            out = spmm(env[op.matrix.vid], dense, bias=bias,
                       tag=op.tag, activation=op.activation or None,
                       rows=rows, row_sparse_out=keep)
            return self._aggregated(op, out, keep, product, env, graph)
        if isinstance(op, FusedGatherScatter):
            source, rows = self._routed(op, env[op.source.vid], env, graph)
            scale = env[op.scale.vid] if op.scale is not None else None
            structure, operator = self._aggregation(
                env, graph, source, op.dst_index, op.src_index, op.scale)
            out = fused_gather_scatter(
                source, env[op.src_index.vid],
                env[op.dst_index.vid], dim_size=graph.num_nodes,
                scale=scale, reduce=op.reduce, tag=op.tag,
                gather_tag=op.gather_tag, structure=structure,
                operator=operator, rows=rows, row_sparse_out=keep)
            return self._aggregated(op, out, keep, product, env, graph)
        if isinstance(op, SGEMM):
            bias = env[op.bias.vid] if op.bias is not None else None
            a = env[op.a.vid]
            if (self._segments is not None
                    and np.shape(a)[0] == graph.num_nodes):
                out = self._segmented_sgemm(op, a, env[op.b.vid], bias,
                                            graph)
            else:
                rows = graph.feature_rows(a)
                out = sgemm(_handed(a) if rows is None else rows,
                            env[op.b.vid], bias=bias, tag=op.tag,
                            activation=op.activation or None)
            env[op.out.vid] = out
            return out
        if isinstance(op, Activation):
            out = get_activation(op.function)(
                _dense_x(env[op.source.vid], graph))
            env[op.out.vid] = out
            return out
        if isinstance(op, (Elementwise, FusedElementwise)):
            stages = op.stages if isinstance(op, FusedElementwise) else (op,)
            local: Dict[int, Any] = {}

            def _resolve(ref):
                return local[ref.vid] if ref.vid in local \
                    else _dense_x(env[ref.vid], graph)

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

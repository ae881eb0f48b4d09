"""The operator-level execution IR shared by every backend.

The paper's central claim is framework *independence*: one GNN function
can run as message passing (gather/scatter over COO) or as fused sparse
products (SpMM over CSR), and which one wins is workload-dependent.  To
make that choice explicit — instead of hard-coding one kernel sequence
per backend — every execution path in this reproduction *lowers* to an
:class:`ExecutionPlan`: a linear sequence of typed operators over
SSA-style values, each operand annotated with its storage format.

Operator vocabulary (mirroring the Table II kernels plus the structural
glue every GNN stack needs):

* :class:`Gather`        — ``indexSelect`` of rows, optionally scaled by
  a per-edge weight vector (the "message" step);
* :class:`ScatterReduce` — atomic reduction of per-edge rows into node
  slots (sum / mean / max / min);
* :class:`SpMM`          — fused sparse-adjacency x dense-feature
  product (CSR operand);
* :class:`SGEMM`         — dense transform with optional fused bias;
* :class:`Activation`    — inter-layer nonlinearity by name;
* :class:`Elementwise`   — the cheap combines (residual adds, bias
  adds, GIN's ``(1+eps)*x + agg``) that glue kernels together;
* :class:`Normalize`     — graph-structure preparation (self-loop
  insertion, GCN normalisation, CSR materialisation...).  Executed at
  *run* time, so plans record exactly the kernel launches — SpGEMM
  chains included — that the legacy direct paths emitted.

The fusion pass (:mod:`repro.plan.fusion`) adds two derived ops —
:class:`FusedGatherScatter` (one streaming launch for a
gather + scatter pair) and :class:`FusedElementwise` (an
elementwise/activation chain collapsed to one dispatch) — written only
by plan rewrites, never by direct lowering.

Plans are pure data: value references plus constants (the layer
weights).  The workload graph is bound at execution time by the
:class:`~repro.plan.executor.PlanExecutor`, which makes one plan
reusable across runs (see :func:`repro.plan.lowering.cached_plan` for
how a backend build finishes one).

A plan may additionally carry a :class:`BatchSegmentMap` — the batched
multi-graph flavor: the bound graph is a block-diagonal
:class:`~repro.graph.batch.BatchedGraph` packing several workloads,
the ops run once over the packed operands, and the segment map tells
the executor where the member row ranges lie (dense transforms run
segment-local to stay bit-for-bit with per-member execution).
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.errors import PlanError

__all__ = [
    "FORMATS",
    "BatchSegmentMap",
    "ValueRef",
    "Gather",
    "ScatterReduce",
    "SpMM",
    "SGEMM",
    "Activation",
    "Elementwise",
    "Normalize",
    "FusedGatherScatter",
    "FusedElementwise",
    "PlanOp",
    "ExecutionPlan",
    "PlanBuilder",
]

#: Storage formats a plan value may carry.  ``edge`` is a 1-D int64
#: endpoint array (one side of a COO edge list), ``vec`` a 1-D float
#: vector, ``obj`` an opaque backend structure (e.g. the DGL-like
#: multi-format graph object).
FORMATS = ("dense", "csr", "edge", "vec", "obj")

#: Elementwise combine kinds understood by the executor.
ELEMENTWISE_KINDS = ("add", "add_bias", "combine")


@dataclass(frozen=True)
class BatchSegmentMap:
    """Where the member graphs of a batched plan live in the packing.

    The batch dimension of the plan IR: ``node_offsets`` /
    ``edge_offsets`` are prefix sums over the packed layout (length
    ``num_graphs + 1``), ``members`` the workload names for reporting.
    Every op of a batched plan implicitly carries this map — the
    executor reads it to keep row-count-sensitive launches (``SGEMM``)
    segment-local while the sparse aggregation ops run packed (their
    block-diagonal structure already factors per member).  The map is
    part of :meth:`ExecutionPlan.fingerprint`, so a batched plan never
    shares a fingerprint with the unbatched plan of the same ops.
    """

    node_offsets: Tuple[int, ...]
    edge_offsets: Tuple[int, ...]
    members: Tuple[str, ...] = ()

    def __post_init__(self):
        for name, offsets in (("node_offsets", self.node_offsets),
                              ("edge_offsets", self.edge_offsets)):
            if len(offsets) < 2 or offsets[0] != 0 or any(
                    lo > hi for lo, hi in zip(offsets, offsets[1:])):
                raise PlanError(
                    f"{name} must be a non-decreasing prefix sum "
                    f"starting at 0, got {offsets}"
                )
        if len(self.edge_offsets) != len(self.node_offsets):
            raise PlanError(
                "node_offsets and edge_offsets must describe the same "
                f"member count, got {len(self.node_offsets)} vs "
                f"{len(self.edge_offsets)}"
            )

    @classmethod
    def from_graph(cls, graph) -> "BatchSegmentMap":
        """The map of a :class:`~repro.graph.batch.BatchedGraph`."""
        return cls(
            node_offsets=tuple(int(o) for o in graph.node_offsets),
            edge_offsets=tuple(int(o) for o in graph.edge_offsets),
            members=tuple(graph.member_names()),
        )

    @property
    def num_graphs(self) -> int:
        """Number of packed member graphs."""
        return len(self.node_offsets) - 1

    @property
    def num_nodes(self) -> int:
        """Total node count of the packed layout."""
        return self.node_offsets[-1]

    def node_segments(self) -> Tuple[Tuple[int, int], ...]:
        """Per-member ``(lo, hi)`` node-row ranges, in pack order."""
        return tuple(zip(self.node_offsets[:-1], self.node_offsets[1:]))

    def describe(self) -> str:
        """One-line form for reports (``gsuite plan``)."""
        names = "+".join(self.members) if self.members else "?"
        return (f"{self.num_graphs} graphs ({names}), "
                f"{self.num_nodes} packed nodes")


@dataclass(frozen=True)
class ValueRef:
    """A reference to one SSA value in a plan (id + format + label)."""

    vid: int
    format: str
    name: str = ""

    def __post_init__(self):
        if self.format not in FORMATS:
            raise PlanError(
                f"unknown value format {self.format!r}; known: {FORMATS}"
            )

    def __repr__(self) -> str:
        label = self.name or f"v{self.vid}"
        return f"%{self.vid}:{self.format}({label})"


@dataclass(frozen=True)
class Gather:
    """``out = source[index]`` rows, optionally ``* scale[:, None]``."""

    source: ValueRef
    index: ValueRef
    out: ValueRef
    scale: Optional[ValueRef] = None
    tag: str = ""

    opcode = "gather"

    def operands(self) -> Tuple[ValueRef, ...]:
        refs = (self.source, self.index)
        return refs + ((self.scale,) if self.scale is not None else ())


@dataclass(frozen=True)
class ScatterReduce:
    """Reduce rows of ``source`` into ``out[index[i]]`` slots."""

    source: ValueRef
    index: ValueRef
    out: ValueRef
    reduce: str = "sum"
    tag: str = ""

    opcode = "scatter"

    def operands(self) -> Tuple[ValueRef, ...]:
        return (self.source, self.index)


@dataclass(frozen=True)
class SpMM:
    """Fused sparse x dense product ``out = matrix @ dense``, optional
    epilogue.

    ``bias`` / ``activation`` name an epilogue (row-broadcast bias add,
    then activation) folded into the same launch, mirroring
    :class:`SGEMM`'s epilogue contract — written by the fusion pass
    (:mod:`repro.plan.fusion`), never by direct lowering, so unfused
    plans are untouched.
    """

    matrix: ValueRef
    dense: ValueRef
    out: ValueRef
    bias: Optional[ValueRef] = None
    tag: str = ""
    activation: str = ""

    opcode = "spmm"

    def operands(self) -> Tuple[ValueRef, ...]:
        refs = (self.matrix, self.dense)
        return refs + ((self.bias,) if self.bias is not None else ())


@dataclass(frozen=True)
class SGEMM:
    """Dense transform ``out = a @ b (+ bias)``, optional epilogue.

    ``activation`` names an epilogue-fused activation applied inside
    the same launch (empty = none) — written by the fusion pass
    (:mod:`repro.plan.fusion`), never by direct lowering, so unfused
    plans are untouched.
    """

    a: ValueRef
    b: ValueRef
    out: ValueRef
    bias: Optional[ValueRef] = None
    tag: str = ""
    activation: str = ""

    #: Batched-execution contract: every lowering today emits ``a``
    #: operands whose rows are *node-aligned* (one row per graph
    #: node), which is what lets the executor segment batched SGEMMs
    #: by member row range (detected via ``a.shape[0] ==
    #: graph.num_nodes``).  A future lowering emitting an SGEMM over
    #: edge-aligned rows must grow an explicit alignment marker here
    #: before it can compose with batching.

    opcode = "sgemm"

    def operands(self) -> Tuple[ValueRef, ...]:
        refs = (self.a, self.b)
        return refs + ((self.bias,) if self.bias is not None else ())


@dataclass(frozen=True)
class Activation:
    """``out = activation(source)`` by registered activation name."""

    source: ValueRef
    out: ValueRef
    function: str = "relu"

    opcode = "activation"
    tag = ""

    def operands(self) -> Tuple[ValueRef, ...]:
        return (self.source,)


@dataclass(frozen=True)
class Elementwise:
    """Cheap dense combine: ``add``, ``add_bias`` or ``combine``.

    ``combine`` computes ``(1 + alpha) * a + b`` — GIN's self-term mix.
    """

    kind: str
    a: ValueRef
    b: ValueRef
    out: ValueRef
    alpha: float = 0.0

    opcode = "elementwise"
    tag = ""

    def __post_init__(self):
        if self.kind not in ELEMENTWISE_KINDS:
            raise PlanError(
                f"unknown elementwise kind {self.kind!r}; "
                f"known: {ELEMENTWISE_KINDS}"
            )

    def operands(self) -> Tuple[ValueRef, ...]:
        return (self.a, self.b)


@dataclass(frozen=True)
class Normalize:
    """Graph-structure preparation, dispatched by ``kind``.

    Kinds are registered with the executor
    (:data:`repro.plan.executor.NORMALIZE_KINDS`); they receive the
    bound graph, this op's ``params`` and the resolved ``inputs``, and
    return one value per entry of ``outs``.  Runs at execution time so
    per-run preparation work (and any kernel launches it performs, e.g.
    GCN's SpGEMM normalisation chain) lands in the recorded trace
    exactly like the legacy direct paths.
    """

    kind: str
    outs: Tuple[ValueRef, ...]
    inputs: Tuple[ValueRef, ...] = ()
    params: Tuple[Tuple[str, Union[int, float, str]], ...] = ()
    tag: str = ""

    opcode = "normalize"

    def operands(self) -> Tuple[ValueRef, ...]:
        return self.inputs

    @property
    def out(self) -> ValueRef:
        return self.outs[0]

    def param_dict(self) -> Dict[str, Union[int, float, str]]:
        return dict(self.params)


@dataclass(frozen=True)
class FusedGatherScatter:
    """Fused message passing: ``Gather`` + ``ScatterReduce`` in one op.

    Produced by the fusion pass from an adjacent pair whose per-edge
    message intermediate has exactly one consumer; executed through the
    ``fusedGatherScatter`` kernel, which streams messages through
    destination-range blocks instead of materialising the ``[E, f]``
    matrix.  ``tag`` / ``gather_tag`` keep the legacy scatter / gather
    labels for the fused launch's ``replaces`` mapping.
    """

    source: ValueRef
    src_index: ValueRef
    dst_index: ValueRef
    out: ValueRef
    scale: Optional[ValueRef] = None
    reduce: str = "sum"
    tag: str = ""
    gather_tag: str = ""

    opcode = "fused_gather_scatter"

    def operands(self) -> Tuple[ValueRef, ...]:
        refs = (self.source, self.src_index, self.dst_index)
        return refs + ((self.scale,) if self.scale is not None else ())


@dataclass(frozen=True)
class FusedElementwise:
    """A chain of ``Elementwise`` / ``Activation`` ops, one traversal.

    ``stages`` holds the original ops in order; each stage's output
    feeds only the next stage (the fusion pass's single-consumer
    legality condition), so the chain collapses to one dispatch whose
    intermediates never enter the executor environment.  Replaying the
    stages applies exactly the unfused arithmetic — bit-for-bit — and,
    like the unfused ops, emits no kernel launches.
    """

    stages: Tuple[Union[Elementwise, Activation], ...]
    out: ValueRef

    opcode = "fused_elementwise"
    tag = ""

    def __post_init__(self):
        if len(self.stages) < 2:
            raise PlanError("fused_elementwise needs at least two stages")
        if self.stages[-1].out.vid != self.out.vid:
            raise PlanError(
                "fused_elementwise out must be the last stage's out")

    def operands(self) -> Tuple[ValueRef, ...]:
        internal = {stage.out.vid for stage in self.stages[:-1]}
        seen = set()
        refs = []
        for stage in self.stages:
            for ref in stage.operands():
                if ref.vid not in internal and ref.vid not in seen:
                    seen.add(ref.vid)
                    refs.append(ref)
        return tuple(refs)

    @property
    def function(self) -> str:
        """Compressed stage summary for :meth:`ExecutionPlan.describe`."""
        return "+".join(
            stage.kind if isinstance(stage, Elementwise) else stage.function
            for stage in self.stages)


PlanOp = Union[Gather, ScatterReduce, SpMM, SGEMM, Activation, Elementwise,
               Normalize, FusedGatherScatter, FusedElementwise]


def _op_outputs(op: PlanOp) -> Tuple[ValueRef, ...]:
    return op.outs if isinstance(op, Normalize) else (op.out,)


@dataclass
class ExecutionPlan:
    """A lowered pipeline: ops + constants + input/output bindings.

    The graph itself is *not* embedded — it is bound when the plan is
    executed — so a plan depends only on the pipeline spec and the
    graph's geometry.

    ``batch`` marks the batched multi-graph flavor: the plan expects a
    block-diagonal :class:`~repro.graph.batch.BatchedGraph` whose
    packing matches this :class:`BatchSegmentMap` (the executor
    validates the node totals at bind time).  ``None`` — the default —
    is the ordinary single-graph plan.
    """

    model: str
    flavor: str
    ops: Tuple[PlanOp, ...]
    inputs: Tuple[ValueRef, ...]
    output: ValueRef
    constants: Dict[int, np.ndarray]
    layer_formats: Tuple[str, ...] = ()
    meta: Dict[str, object] = field(default_factory=dict)
    batch: Optional[BatchSegmentMap] = None

    def with_batch(self, batch: Optional[BatchSegmentMap]) -> "ExecutionPlan":
        """A copy of this plan carrying ``batch`` as its segment map.

        Lowering is batch-agnostic (the ops are identical either way);
        :func:`repro.plan.lowering.cached_plan` stamps the map on when
        the bound graph is batched, flipping the plan — fingerprint
        included — into the batched flavor.
        """
        if batch is self.batch:
            return self
        return ExecutionPlan(
            model=self.model, flavor=self.flavor, ops=self.ops,
            inputs=self.inputs, output=self.output,
            constants=self.constants, layer_formats=self.layer_formats,
            meta=self.meta, batch=batch,
        )

    def op_counts(self) -> Dict[str, int]:
        """``{opcode: occurrences}`` — the plan's kernel vocabulary."""
        return dict(Counter(op.opcode for op in self.ops))

    def validate(self) -> None:
        """Check SSA well-formedness: defs precede uses, single output."""
        defined = {ref.vid for ref in self.inputs}
        defined.update(self.constants)
        for op in self.ops:
            for ref in op.operands():
                if ref.vid not in defined:
                    raise PlanError(
                        f"op {op.opcode!r} reads undefined value {ref!r}"
                    )
            for ref in _op_outputs(op):
                if ref.vid in defined:
                    raise PlanError(f"value {ref!r} defined twice")
                defined.add(ref.vid)
        if self.output.vid not in defined:
            raise PlanError(f"plan output {self.output!r} is never defined")

    def fingerprint(self) -> str:
        """Content hash of the plan: structure plus constant payloads."""
        digest = hashlib.sha256()
        digest.update(f"{self.model}|{self.flavor}|"
                      f"{','.join(self.layer_formats)}".encode())
        if self.batch is not None:
            digest.update(repr(self.batch).encode())
        for op in self.ops:
            digest.update(repr(op).encode())
        digest.update(repr(self.inputs).encode())
        digest.update(repr(self.output).encode())
        for vid in sorted(self.constants):
            arr = self.constants[vid]
            digest.update(f"{vid}|{arr.dtype}|{arr.shape}".encode())
            digest.update(np.ascontiguousarray(arr).tobytes())
        return digest.hexdigest()

    def describe(self) -> List[Tuple[str, str, str, str]]:
        """Rows ``(step, opcode, operands, result)`` for display."""
        rows = []
        for i, op in enumerate(self.ops):
            detail = op.kind if isinstance(op, (Normalize, Elementwise)) \
                else getattr(op, "function", op.tag)
            operands = ", ".join(repr(r) for r in op.operands())
            outs = ", ".join(repr(r) for r in _op_outputs(op))
            rows.append((f"{i:3d}", f"{op.opcode}"
                         f"{f'[{detail}]' if detail else ''}",
                         operands, outs))
        return rows

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        batched = f", batch={self.batch.num_graphs}" if self.batch else ""
        return (f"ExecutionPlan(model={self.model!r}, flavor={self.flavor!r}, "
                f"ops={len(self.ops)}, formats={list(self.layer_formats)}"
                f"{batched})")


class PlanBuilder:
    """Incremental builder used by the lowering hooks.

    Allocates :class:`ValueRef` ids, accumulates ops/constants and
    produces a validated :class:`ExecutionPlan`.
    """

    def __init__(self, model: str, flavor: str):
        self.model = model
        self.flavor = flavor
        self._ops: List[PlanOp] = []
        self._inputs: List[ValueRef] = []
        self._constants: Dict[int, np.ndarray] = {}
        self._next_id = 0

    # -- value allocation --------------------------------------------------
    def _new(self, fmt: str, name: str = "") -> ValueRef:
        ref = ValueRef(self._next_id, fmt, name)
        self._next_id += 1
        return ref

    def input(self, name: str, fmt: str = "dense") -> ValueRef:
        """Declare a runtime input bound by name at execution."""
        if any(ref.name == name for ref in self._inputs):
            raise PlanError(f"duplicate plan input {name!r}")
        ref = self._new(fmt, name)
        self._inputs.append(ref)
        return ref

    def constant(self, array: np.ndarray, name: str = "",
                 fmt: Optional[str] = None) -> ValueRef:
        """Embed a constant array (layer weights, biases, epsilon...)."""
        array = np.asarray(array)
        if fmt is None:
            fmt = "vec" if array.ndim == 1 else "dense"
        ref = self._new(fmt, name)
        self._constants[ref.vid] = array
        return ref

    # -- op emission -------------------------------------------------------
    def gather(self, source: ValueRef, index: ValueRef,
               scale: Optional[ValueRef] = None, tag: str = "") -> ValueRef:
        out = self._new("dense")
        self._ops.append(Gather(source, index, out, scale=scale, tag=tag))
        return out

    def scatter_reduce(self, source: ValueRef, index: ValueRef,
                       reduce: str = "sum", tag: str = "") -> ValueRef:
        out = self._new("dense")
        self._ops.append(ScatterReduce(source, index, out, reduce=reduce,
                                       tag=tag))
        return out

    def spmm(self, matrix: ValueRef, dense: ValueRef,
             bias: Optional[ValueRef] = None, tag: str = "",
             activation: str = "") -> ValueRef:
        out = self._new("dense")
        self._ops.append(SpMM(matrix, dense, out, bias=bias, tag=tag,
                              activation=activation))
        return out

    def sgemm(self, a: ValueRef, b: ValueRef,
              bias: Optional[ValueRef] = None, tag: str = "",
              activation: str = "") -> ValueRef:
        out = self._new("dense")
        self._ops.append(SGEMM(a, b, out, bias=bias, tag=tag,
                               activation=activation))
        return out

    def activation(self, source: ValueRef, function: str) -> ValueRef:
        out = self._new("dense")
        self._ops.append(Activation(source, out, function=function))
        return out

    def elementwise(self, kind: str, a: ValueRef, b: ValueRef,
                    alpha: float = 0.0) -> ValueRef:
        out = self._new("dense")
        self._ops.append(Elementwise(kind, a, b, out, alpha=alpha))
        return out

    def normalize(self, kind: str, outputs: Tuple[Tuple[str, str], ...],
                  inputs: Tuple[ValueRef, ...] = (),
                  params: Optional[Dict[str, Union[int, float, str]]] = None,
                  tag: str = "") -> Tuple[ValueRef, ...]:
        """Emit a structure-preparation op.

        ``outputs`` is a tuple of ``(name, format)`` pairs describing the
        values the kind produces, in order.
        """
        outs = tuple(self._new(fmt, name) for name, fmt in outputs)
        self._ops.append(Normalize(
            kind, outs, inputs=tuple(inputs),
            params=tuple(sorted((params or {}).items())), tag=tag))
        return outs

    # -- finalisation ------------------------------------------------------
    def build(self, output: ValueRef,
              layer_formats: Tuple[str, ...] = (),
              meta: Optional[Dict[str, object]] = None) -> ExecutionPlan:
        plan = ExecutionPlan(
            model=self.model,
            flavor=self.flavor,
            ops=tuple(self._ops),
            inputs=tuple(self._inputs),
            output=output,
            constants=dict(self._constants),
            layer_formats=tuple(layer_formats),
            meta=dict(meta or {}),
        )
        plan.validate()
        return plan

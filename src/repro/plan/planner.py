"""The cost-model planner: every execution decision a plan can take.

One ``choose_*`` entry point per knob, all consuming the same
:class:`GraphStats` and pricing with the same module constants below
(fusion is not among them: it is a pass applied at lowering,
:mod:`repro.plan.fusion`, with nothing to decide):

* :func:`choose_formats` — MP vs fused-SpMM execution per layer;
* :func:`choose_batching` — how many sweep members pack into one
  batched multi-graph plan (:mod:`repro.graph.batch`).

The constants are the paper's static Fig. 5 values: the four kernel
units derive from :data:`repro.core.kernels.costmodel.COSTS`, the rest
are the hand-set values each gate shipped with.  Nothing — no flag,
file, config field or environment variable — replaces them.

The founding observation is the format split: the same GNN layer can
execute as message passing (gather + scatter over an edge list) or as
a fused SpMM over CSR, and which one wins is workload-dependent — the
CSR exemplars show SpMM >1.3x faster on Reddit-scale graphs yet
*losing* on Cora-scale ones.  The cost model turns that into an
explicit decision procedure built on three graph statistics:

* **average degree** — SpMM's row-major traversal pays a per-row
  overhead (``indptr`` walks, row startup) that only amortises when
  rows hold enough nonzeros.  Sparse citation graphs (``E/V ~ 2``)
  leave SpMM underutilised; Reddit's ``E/V ~ 50`` feeds it perfectly.
* **feature width** — the row-copy inner loops of *all* the sparse
  kernels keep only ``min(32, f)`` warp lanes busy (see
  ``active_lanes`` in the kernel emitters), inflating the absolute cost
  of narrow-feature workloads on both paths; the penalty cancels in the
  MP-vs-SpMM comparison but keeps the one-off setup amortisation
  honest: per-layer savings scale with ``f`` while structure setup does
  not, so narrow-feature workloads need a clearer win to flip.
* **degree skew** — scatter's atomic reductions collide on hub nodes;
  heavier-tailed degree distributions raise MP's effective cost.

Choosing SpMM additionally charges a one-off structure-preparation
cost (CSR materialisation / the SpGEMM normalisation chain), so a plan
only flips layers to SpMM when the per-layer savings beat the setup —
which is exactly why Cora-scale graphs stay on MP end to end.

Statistics come either from a live :class:`~repro.graph.graph.Graph`
(:meth:`GraphStats.from_graph`) or from a
:class:`~repro.datasets.specs.DatasetSpec`
(:meth:`GraphStats.from_spec`), so full-size decisions can be computed
without materialising a 69M-edge workload.  Scaled benchmark graphs
preserve average degree, hence also preserve the decision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, NamedTuple, Optional, Sequence,
                    Tuple)

from repro.core.kernels.costmodel import COSTS
from repro.core.kernels.launch import WARP_SIZE
from repro.datasets.specs import DatasetSpec
from repro.graph import Graph

__all__ = ["BatchDecision", "GraphStats", "PlannerDecisions",
           "batch_member_bytes", "batch_member_footprint",
           "choose_batching", "choose_formats", "choose_fusion",
           "choose_shards", "explain_choice", "mp_layer_cost",
           "spmm_layer_cost", "spmm_setup_cost"]

#: ``fn(fmt, fan_in, fan_out) -> width`` — the feature width a layer's
#: aggregation actually runs at under execution format ``fmt``.  The
#: default models aggregation at the input width; models whose lowering
#: transforms *before* aggregating (GCN-MP) override via
#: :meth:`repro.core.models.base.GNNModel.aggregation_width`.
WidthHook = Callable[[str, int, int], int]


def _default_width(fmt: str, fan_in: int, fan_out: int) -> int:
    return fan_in


def _instructions_per_unit(kernel: str) -> float:
    cost = COSTS[kernel]
    return cost.fp32 + cost.int_ops + cost.ldst + cost.control + cost.other


# Kernel units: dynamic instructions per element of logical work.  Only
# their relative magnitudes matter, since every gate compares modelled
# costs against each other.
GATHER_UNIT = _instructions_per_unit("indexSelect")
SCATTER_UNIT = _instructions_per_unit("scatter")
SPMM_UNIT = _instructions_per_unit("spmm")
SPGEMM_UNIT = _instructions_per_unit("SpGEMM")
#: SpMM row startup, in nnz per row.
ROW_OVERHEAD_NNZ = 8.0
#: Scatter atomic-collision strength.
CONTENTION_WEIGHT = 0.05
#: Packed message LLC residency target, in bytes.
WORKING_SET_BYTES = 32 * 1024 * 1024
#: Packed resident-state budget, in bytes.
BATCH_FOOTPRINT_BYTES = 1024 ** 3
#: Planner-chosen batch ceiling.
MAX_AUTO_BATCH = 64

_FLOAT_BYTES = 4


@dataclass(frozen=True)
class GraphStats:
    """The workload statistics the planner consumes."""

    num_nodes: int
    num_edges: int
    feature_width: int
    avg_degree: float
    density: float
    degree_skew: float   # max in-degree / mean in-degree (>= 1)

    @classmethod
    def from_graph(cls, graph: Graph) -> "GraphStats":
        """Measure a materialised workload graph."""
        in_degrees = graph.in_degrees()
        mean = float(in_degrees.mean()) if in_degrees.size else 0.0
        skew = float(in_degrees.max()) / mean if mean > 0 else 1.0
        cells = graph.num_nodes * graph.num_nodes
        return cls(
            num_nodes=graph.num_nodes,
            num_edges=graph.num_edges,
            feature_width=graph.num_features,
            avg_degree=graph.num_edges / graph.num_nodes
            if graph.num_nodes else 0.0,
            density=graph.num_edges / cells if cells else 0.0,
            degree_skew=max(1.0, skew),
        )

    @classmethod
    def from_spec(cls, spec: DatasetSpec) -> "GraphStats":
        """Estimate statistics from a Table IV dataset spec.

        The maximum degree of a power-law graph with exponent ``gamma``
        scales as ``V**(1 / (gamma - 1))`` — enough fidelity for the
        (log-damped) contention term.
        """
        cells = spec.num_nodes * spec.num_nodes
        max_degree = spec.num_nodes ** (1.0 / (spec.degree_exponent - 1.0))
        avg = spec.average_degree
        return cls(
            num_nodes=spec.num_nodes,
            num_edges=spec.num_edges,
            feature_width=spec.feature_length,
            avg_degree=avg,
            density=spec.num_edges / cells if cells else 0.0,
            degree_skew=max(1.0, max_degree / avg) if avg > 0 else 1.0,
        )


class BatchDecision(NamedTuple):
    """The resolved batched-plan decision of one pipeline.

    A named tuple (not a loose pair): ``size`` is the packed member
    count (1 = unbatched) and ``source`` records who decided —
    ``"off"`` / ``"forced"`` / ``"planner"`` / ``"graph"`` (see
    :meth:`repro.core.pipeline.GNNPipeline.batch_decision`).  Tuple
    equality and unpacking keep working for existing callers.
    """

    size: int
    source: str


@dataclass(frozen=True)
class PlannerDecisions:
    """Every decision the planner took for one built pipeline.

    The machine-readable surface behind ``gsuite plan``: instead of
    scraping loose tuples and report strings, consumers get
    one typed record of what the build actually applied — per-layer
    formats, fused sites, batch size and the human-readable explain
    strings.

    ``fused_sites`` counts the fusion pass's rewrites per pattern
    (empty when it rewrote nothing); ``execution_plan`` is
    the lowered :class:`~repro.plan.ir.ExecutionPlan` the build
    executes.  Sources are ``"planner"`` / ``"forced"`` / ``"off"``
    (plus ``"fixed"`` for formats pinned by the compute model and
    ``"graph"`` for explicit batched workloads).
    """

    formats: Tuple[str, ...]
    formats_source: str
    execution_plan: Any                    # ExecutionPlan
    fused_sites: Dict[str, int] = field(default_factory=dict)
    batch: int = 1
    batch_source: str = "off"
    explain: str = ""



def _lane_penalty(feature_width: int) -> float:
    """Warp-lane underutilisation of the sparse row-copy inner loops.

    Applies to gather/scatter *and* SpMM alike — all three keep
    ``min(32, f)`` lanes busy per row — so it cancels when comparing
    the two paths but keeps absolute estimates comparable against the
    width-independent structure-setup cost.
    """
    return WARP_SIZE / min(WARP_SIZE, max(1, feature_width))


def _contention(stats: GraphStats) -> float:
    """Atomic-collision multiplier on scatter (1 for a flat graph)."""
    return 1.0 + CONTENTION_WEIGHT * math.log1p(stats.degree_skew)


def mp_layer_cost(stats: GraphStats, feature_width: int) -> float:
    """Estimated cost of one MP layer (gather + scatter)."""
    elements = float(stats.num_edges) * max(1, feature_width)
    gather = GATHER_UNIT * elements
    scatter = SCATTER_UNIT * elements * _contention(stats)
    return (gather + scatter) * _lane_penalty(feature_width)


def spmm_layer_cost(stats: GraphStats, feature_width: int) -> float:
    """Estimated cost of one fused SpMM layer."""
    effective_nnz = stats.num_edges + ROW_OVERHEAD_NNZ * stats.num_nodes
    return (SPMM_UNIT * effective_nnz * max(1, feature_width)
            * _lane_penalty(feature_width))


def spmm_setup_cost(stats: GraphStats) -> float:
    """One-off cost of materialising the SpMM structure per run.

    Models the CSR build plus the normalisation chain (for GCN, two
    SpGEMM launches whose expansion is ``E + V`` partial products).
    """
    return SPGEMM_UNIT * (stats.num_edges + stats.num_nodes)


def choose_formats(dims: Sequence[Tuple[int, int]], stats: GraphStats,
                   allowed: Sequence[str] = ("MP", "SpMM"),
                   width_hook: Optional[WidthHook] = None,
                   ) -> Tuple[str, ...]:
    """Per-layer execution format for a stack with layer ``dims``.

    ``dims`` is the model's ``(fan_in, fan_out)`` list.  The cost of a
    layer is driven by the width its aggregation actually runs at: by
    default the *input* width, calibrated per model through
    ``width_hook`` — GCN's transform-first MP path aggregates at the
    *output* width, so its MP estimate uses ``fan_out`` while its SpMM
    estimate (propagate-then-transform) keeps ``fan_in``.  When the
    per-layer greedy choice selects SpMM somewhere, the aggregate
    saving must also beat the one-off structure setup, otherwise the
    plan stays MP-only.
    """
    width = width_hook or _default_width
    if "SpMM" not in allowed:
        return tuple("MP" for _ in dims)
    if "MP" not in allowed:
        return tuple("SpMM" for _ in dims)

    decisions = []
    saving = 0.0
    for fan_in, fan_out in dims:
        mp = mp_layer_cost(stats, width("MP", fan_in, fan_out))
        sp = spmm_layer_cost(stats, width("SpMM", fan_in, fan_out))
        if sp < mp:
            decisions.append("SpMM")
            saving += mp - sp
        else:
            decisions.append("MP")
    if "SpMM" in decisions and saving <= spmm_setup_cost(stats):
        return tuple("MP" for _ in dims)
    return tuple(decisions)


def choose_fusion(formats: Sequence[str]) -> bool:
    """Uncalled shim: fusion is no longer a planner decision.

    :func:`repro.plan.fusion.fuse_plan` applies every pattern at every
    legal site inside :func:`repro.plan.lowering.cached_plan`; nothing
    here is consulted.  The name survives only because
    ``benchmarks/e2e/tracing.py`` binds it by name (ROADMAP item 1a
    deletes the binding and this).  Returns ``True`` — every plan fuses.
    """
    return True


def choose_shards(*args, **kwargs) -> int:
    """Uncalled shim: no plan is sharded; every plan runs as one op walk.

    The name survives only because ``benchmarks/e2e/tracing.py`` binds
    it by name (like :func:`choose_fusion`).  Returns ``1``.
    """
    return 1


# ---------------------------------------------------------------------------
# Batching decisions
# ---------------------------------------------------------------------------

def batch_member_bytes(dims: Sequence[Tuple[int, int]], stats: GraphStats,
                       formats: Sequence[str] = (),
                       width_hook: Optional[WidthHook] = None) -> float:
    """Peak aggregation working set of *one* member's plan, in bytes.

    The widest MP layer's per-edge message matrix (``4 * E * width``).
    SpMM layers stream CSR rows block-locally and never materialise
    that intermediate, so they contribute nothing; an all-SpMM plan
    batches freely.
    """
    width = width_hook or _default_width
    formats = list(formats) or ["MP"] * len(dims)
    peak = 0.0
    for (fan_in, fan_out), fmt in zip(dims, formats):
        if fmt == "SpMM":
            continue
        layer_width = max(1, width(fmt, fan_in, fan_out))
        peak = max(peak, _FLOAT_BYTES * float(stats.num_edges) * layer_width)
    return peak


def batch_member_footprint(stats: GraphStats) -> float:
    """Resident bytes one packed member contributes, format-agnostic.

    The feature slab (``4 * N * f``) plus the compressed adjacency
    (CSR data + indices + indptr, ~``12 * E``): state every member of
    a batch keeps live simultaneously, whichever formats its layers
    execute.  This is the term that keeps :func:`choose_batching` from
    packing Table-IV-scale members even when their plans are all-SpMM
    and therefore exert no *message* working-set pressure.
    """
    return (_FLOAT_BYTES * float(stats.num_nodes)
            * max(1, stats.feature_width)
            + 12.0 * float(stats.num_edges))


def choose_batching(num_graphs: int, dims: Sequence[Tuple[int, int]],
                    stats: GraphStats, formats: Sequence[str] = (),
                    width_hook: Optional[WidthHook] = None,
                    max_batch: Optional[int] = None) -> int:
    """Packed batch size for a sweep of ``num_graphs`` same-spec graphs.

    Batching always *saves* fixed per-graph overhead — one model
    build and lowering, one executor walk, one launch per
    aggregation op instead of ``num_graphs`` — so the decision is
    driven entirely by what it *costs*: the packed per-edge message
    matrix grows linearly with the batch, and once it outgrows the
    cache-residency budget the batched run loses the locality every
    member enjoyed alone.  The planner therefore packs the largest
    ``B`` satisfying two budgets at once:

    * **message working set** — ``B *`` :func:`batch_member_bytes`
      stays within an LLC-sized residency target
      (:data:`WORKING_SET_BYTES`), with no hysteresis: batching
      costs nothing to decline, and a borderline pack (measured: two
      ~31 MB GIN/Cora members) loses more residency than it amortises.
    * **resident footprint** — ``B *`` :func:`batch_member_footprint`
      stays within a RAM-scale budget (:data:`BATCH_FOOTPRINT_BYTES`).
      Feature slabs and structures multiply by ``B`` whatever the
      layer formats, so an all-SpMM plan — which exerts no message
      pressure at all — is still bounded: scaled social-graph sweeps
      may pack, Table-IV-size ones stay per-graph.

    Citation-scale members pack wholesale; a full-size Reddit member
    exceeds both budgets on its own and the sweep stays unbatched
    (``1``).  ``stats`` describes one representative member (sweep
    members share a spec); ``formats`` / ``width_hook`` follow
    :func:`choose_formats`.  ``max_batch`` defaults to
    :data:`MAX_AUTO_BATCH` — past it the per-plan amortisation is
    already >96% captured (overhead scales as 1/B) while every extra
    member keeps growing the packed operands linearly.

    There is deliberately no relaxation for fused plans: the fused
    kernel bounds the message working set, but the footprint argument
    above applies to fused plans identically, and the message term is
    what keeps a *borderline* unfused pack from evicting the residency
    each member enjoyed alone.
    """
    if num_graphs <= 1:
        return 1
    if max_batch is None:
        max_batch = MAX_AUTO_BATCH
    ceiling = min(int(num_graphs), int(max_batch))
    per_member = batch_member_bytes(dims, stats, formats=formats,
                                    width_hook=width_hook)
    if per_member > 0.0:
        ceiling = min(ceiling, int(WORKING_SET_BYTES // per_member))
    footprint = batch_member_footprint(stats)
    if footprint > 0.0:
        ceiling = min(ceiling, int(BATCH_FOOTPRINT_BYTES // footprint))
    return max(1, ceiling)


def explain_choice(dims: Sequence[Tuple[int, int]], stats: GraphStats,
                   chosen: Sequence[str] = (),
                   width_hook: Optional[WidthHook] = None) -> str:
    """Human-readable per-layer cost breakdown (CLI ``gsuite plan``).

    ``chosen`` is the planner's *final* per-layer selection; when given,
    each line reports it (the raw cost comparison alone can differ from
    the outcome once the model's allowed lowerings and the SpMM
    setup-amortisation gate apply).
    """
    width = width_hook or _default_width
    lines = [
        f"avg degree {stats.avg_degree:.1f}, skew {stats.degree_skew:.1f}, "
        f"feature width {stats.feature_width}, "
        f"setup {spmm_setup_cost(stats):.3g} instr",
    ]
    for layer, (fan_in, fan_out) in enumerate(dims):
        w_mp = width("MP", fan_in, fan_out)
        w_sp = width("SpMM", fan_in, fan_out)
        mp = mp_layer_cost(stats, w_mp)
        sp = spmm_layer_cost(stats, w_sp)
        picked = chosen[layer] if layer < len(chosen) \
            else ("SpMM" if sp < mp else "MP")
        lines.append(
            f"layer {layer} (f={fan_in}): MP {mp:.3g} (agg width {w_mp}) "
            f"vs SpMM {sp:.3g} (agg width {w_sp}) -> {picked}"
        )
    return "\n".join(lines)

"""The cost-model planner: every execution decision a plan can take.

One ``choose_*`` entry point per knob, all consuming the same
:class:`GraphStats` and the same :class:`~repro.plan.costprofile.CostProfile`
of planner constants (fusion is not among them: it is a pass applied
at lowering, :mod:`repro.plan.fusion`, with nothing to decide):

* :func:`choose_formats` — MP vs fused-SpMM execution per layer;
* :func:`choose_shards`  — destination-range shard count
  (:mod:`repro.plan.sharding`);
* :func:`choose_batching` — how many sweep members pack into one
  batched multi-graph plan (:mod:`repro.graph.batch`).

Every entry point takes an optional ``profile``; ``None`` means the
paper's static Fig. 5 constants (:meth:`CostProfile.paper`), under
which all decisions are bit-for-bit the historical ones; a
hand-edited profile file (``--profile-costs PATH``) is the only other
source.

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

from repro.core.kernels.launch import WARP_SIZE
from repro.datasets.specs import DatasetSpec
from repro.graph import Graph
from repro.plan.costprofile import CostProfile

__all__ = ["BatchDecision", "GraphStats", "PlannerDecisions",
           "batch_member_bytes", "batch_member_footprint",
           "choose_batching", "choose_formats", "choose_fusion",
           "choose_partitioner", "choose_shards", "explain_choice",
           "mp_layer_cost", "partition_balance_cost",
           "shard_setup_cost", "spmm_layer_cost", "spmm_setup_cost"]

#: ``fn(fmt, fan_in, fan_out) -> width`` — the feature width a layer's
#: aggregation actually runs at under execution format ``fmt``.  The
#: default models aggregation at the input width; models whose lowering
#: transforms *before* aggregating (GCN-MP, GAT) override via
#: :meth:`repro.core.models.base.GNNModel.aggregation_width`.
WidthHook = Callable[[str, int, int], int]


def _default_width(fmt: str, fan_in: int, fan_out: int) -> int:
    return fan_in

#: The paper's static constants — the fallback for ``profile=None``
#: everywhere below, so unparameterised calls price exactly as the
#: pre-profile module globals did.
_PAPER = CostProfile.paper()

_FLOAT_BYTES = 4


def _resolve(profile: Optional[CostProfile]) -> CostProfile:
    return profile if profile is not None else _PAPER


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
    formats, shard count, fused sites, batch size, the cost-profile
    name they were priced under, and the human-readable explain
    strings.

    ``fused`` says whether the fusion pass rewrote the plan and
    ``fused_sites`` how many sites per pattern; ``execution_plan`` is
    the lowered :class:`~repro.plan.ir.ExecutionPlan` the build
    executes.  Sources mirror the policy
    objects: ``"planner"`` / ``"forced"`` / ``"off"`` (plus ``"fixed"`` for
    formats pinned by the compute model and ``"graph"`` for explicit
    batched workloads).
    """

    formats: Tuple[str, ...]
    formats_source: str
    shards: int
    shards_source: str
    execution_plan: Any                    # ExecutionPlan
    fused_sites: Dict[str, int] = field(default_factory=dict)
    batch: int = 1
    batch_source: str = "off"
    cost_profile: str = "paper"
    explain: str = ""
    partitioner: str = "rows"        # shard partitioner ("rows"/"edges";
                                     # only meaningful when shards > 1)

    @property
    def fused(self) -> bool:
        """Whether the fusion pass rewrote the plan."""
        return any(self.fused_sites.values())

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable form (what the regression gate records)."""
        return {
            "formats": list(self.formats),
            "formats_source": self.formats_source,
            "shards": self.shards,
            "shards_source": self.shards_source,
            "partitioner": self.partitioner,
            "fused": self.fused,
            "fused_sites": dict(self.fused_sites),
            "batch": self.batch,
            "batch_source": self.batch_source,
            "cost_profile": self.cost_profile,
            "explain": self.explain,
            "plan_fingerprint": self.execution_plan.fingerprint(),
        }


def _lane_penalty(feature_width: int) -> float:
    """Warp-lane underutilisation of the sparse row-copy inner loops.

    Applies to gather/scatter *and* SpMM alike — all three keep
    ``min(32, f)`` lanes busy per row — so it cancels when comparing
    the two paths but keeps absolute estimates comparable against the
    width-independent structure-setup cost.
    """
    return WARP_SIZE / min(WARP_SIZE, max(1, feature_width))


def _contention(stats: GraphStats, profile: CostProfile) -> float:
    """Atomic-collision multiplier on scatter (1 for a flat graph)."""
    return 1.0 + profile.contention_weight * math.log1p(stats.degree_skew)


def mp_layer_cost(stats: GraphStats, feature_width: int,
                  profile: Optional[CostProfile] = None) -> float:
    """Estimated cost of one MP layer (gather + scatter)."""
    profile = _resolve(profile)
    elements = float(stats.num_edges) * max(1, feature_width)
    gather = profile.gather_unit * elements
    scatter = (profile.scatter_unit * elements
               * _contention(stats, profile))
    return (gather + scatter) * _lane_penalty(feature_width)


def spmm_layer_cost(stats: GraphStats, feature_width: int,
                    profile: Optional[CostProfile] = None) -> float:
    """Estimated cost of one fused SpMM layer."""
    profile = _resolve(profile)
    effective_nnz = (stats.num_edges
                     + profile.row_overhead_nnz * stats.num_nodes)
    return (profile.spmm_unit * effective_nnz * max(1, feature_width)
            * _lane_penalty(feature_width))


def spmm_setup_cost(stats: GraphStats,
                    profile: Optional[CostProfile] = None) -> float:
    """One-off cost of materialising the SpMM structure per run.

    Models the CSR build plus the normalisation chain (for GCN, two
    SpGEMM launches whose expansion is ``E + V`` partial products).
    """
    profile = _resolve(profile)
    return profile.spgemm_unit * (stats.num_edges + stats.num_nodes)


def choose_formats(dims: Sequence[Tuple[int, int]], stats: GraphStats,
                   allowed: Sequence[str] = ("MP", "SpMM"),
                   width_hook: Optional[WidthHook] = None,
                   profile: Optional[CostProfile] = None,
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
    profile = _resolve(profile)
    if "SpMM" not in allowed:
        return tuple("MP" for _ in dims)
    if "MP" not in allowed:
        return tuple("SpMM" for _ in dims)

    decisions = []
    saving = 0.0
    for fan_in, fan_out in dims:
        mp = mp_layer_cost(stats, width("MP", fan_in, fan_out),
                           profile=profile)
        sp = spmm_layer_cost(stats, width("SpMM", fan_in, fan_out),
                             profile=profile)
        if sp < mp:
            decisions.append("SpMM")
            saving += mp - sp
        else:
            decisions.append("MP")
    if "SpMM" in decisions and saving <= spmm_setup_cost(stats,
                                                         profile=profile):
        return tuple("MP" for _ in dims)
    return tuple(decisions)


def choose_fusion(formats: Sequence[str]) -> bool:
    """Uncalled shim: fusion is no longer a planner decision.

    :func:`repro.plan.fusion.fuse_plan` applies every pattern at every
    legal site inside :func:`repro.plan.lowering.cached_plan`; nothing
    here is consulted.  The name survives only because
    ``benchmarks/e2e/tracing.py`` binds it by name (ROADMAP item 1e
    deletes the binding and this).  Returns ``True`` — every plan fuses.
    """
    return True


def shard_setup_cost(stats: GraphStats,
                     profile: Optional[CostProfile] = None) -> float:
    """Modelled per-shard overhead (slice + dispatch + merge share).

    ``profile.shard_setup_instructions`` covers edge-range slicing and
    sub-plan dispatch; the merge's row pass scales with the node count
    at the scatter unit cost.  Gates shard counts the same way
    :func:`spmm_setup_cost` gates format flips — tiny workloads never
    amortise it, so they stay unsharded.
    """
    profile = _resolve(profile)
    return (profile.shard_setup_instructions
            + profile.scatter_unit * stats.num_nodes)


def choose_shards(dims: Sequence[Tuple[int, int]], stats: GraphStats,
                  formats: Sequence[str] = (),
                  width_hook: Optional[WidthHook] = None,
                  max_shards: int = 32, fused: bool = False,
                  profile: Optional[CostProfile] = None) -> int:
    """Destination-range shard count for one plan.

    Two terms, both from the graph statistics:

    * the **working-set** target — the widest *MP* layer's per-edge
      message matrix (``4 * E * width`` bytes) divided into slices of
      ``profile.shard_working_set_bytes`` (an LLC-sized budget) sets
      the shard count that keeps gather output resident for the
      scatter.  SpMM layers never materialise that intermediate (the
      fused kernel streams CSR rows), so they contribute no sharding
      pressure — an all-SpMM plan stays at ``K = 1``;
    * the **setup amortisation** gate — each shard must carry more
      modelled aggregation work than :func:`shard_setup_cost`, which is
      what keeps Cora-class workloads (and narrow-feature giants whose
      messages already fit) at ``K = 1``.

    ``formats`` is the plan's per-layer execution format (defaults to
    MP everywhere); widths follow the same calibrated ``width_hook`` as
    :func:`choose_formats`.  ``fused`` declares that the plan's
    gather/scatter pairs were fused (the default; ``fuse="off"`` opts out):
    the fused kernel already streams the message matrix through
    cache-sized destination blocks, so — exactly like SpMM layers — MP
    layers then exert no working-set pressure and a single process
    stays at ``K = 1`` (sharding a fused plan is still legal and
    useful for ``jobs > 1`` parallelism; it is just no longer a
    residency fix).
    """
    width = width_hook or _default_width
    profile = _resolve(profile)
    formats = list(formats) or ["MP"] * len(dims)
    peak_bytes = 0.0
    aggregation = 0.0
    for (fan_in, fan_out), fmt in zip(dims, formats):
        layer_width = max(1, width(fmt, fan_in, fan_out))
        if fmt != "SpMM" and not fused:
            peak_bytes = max(
                peak_bytes,
                _FLOAT_BYTES * float(stats.num_edges) * layer_width)
        cost = spmm_layer_cost if fmt == "SpMM" else mp_layer_cost
        aggregation += cost(stats, layer_width, profile=profile)
    # 2x hysteresis: a message matrix barely past the target gains less
    # from residency than the per-shard dispatch costs, so only shard
    # once the working set clearly exceeds it.
    if peak_bytes <= 2 * profile.shard_working_set_bytes:
        return 1
    wanted = math.ceil(peak_bytes / profile.shard_working_set_bytes)
    # cost(K) = aggregation / K + K * setup is minimised at
    # sqrt(aggregation / setup); past that, extra shards cost more in
    # setup than they save in working set.
    amortised = math.sqrt(aggregation
                          / shard_setup_cost(stats, profile=profile))
    k = min(wanted, int(amortised), max_shards, stats.num_nodes)
    return max(1, k)


def partition_balance_cost(stats: GraphStats,
                           profile: Optional[CostProfile] = None) -> float:
    """Modelled one-off bookkeeping of the edge-balanced partition.

    The prefix sum over the per-row in-edge counts plus the boundary
    search is an O(V) host-side pass
    (``profile.shard_balance_unit`` per row); the even-row split is
    O(1).  Compared against one aggregation pass in
    :func:`choose_partitioner` so degenerate workloads (near-edgeless
    graphs) keep the free split.
    """
    profile = _resolve(profile)
    return profile.shard_balance_unit * float(stats.num_nodes)


def choose_partitioner(stats: GraphStats, num_shards: int = 0,
                       profile: Optional[CostProfile] = None) -> str:
    """The shard partitioner for one plan: ``"rows"`` or ``"edges"``.

    Even-row destination ranges (``"rows"``) are free to compute but
    bound each shard's *row* count, not its *edge* count: on a
    power-law graph whose hub rows cluster (degree-sorted export
    layouts), the heaviest shard can carry several times ``E / K``
    edges — it blows the per-shard residency budget in-process and
    bounds the pool's makespan under ``jobs > 1``.  The edge-balanced
    partitioner (``"edges"``) splits by prefix sum over the CSR row
    pointer so every shard carries ~``E / K`` edges at ragged row
    counts.

    The gate is :attr:`~repro.plan.costprofile.CostProfile.shard_skew_threshold`
    on :attr:`GraphStats.degree_skew` — flat graphs cannot be
    meaningfully imbalanced, so they keep the free split — plus the
    :func:`partition_balance_cost` amortisation against one aggregation
    pass.  ``num_shards <= 1`` always returns ``"rows"`` (nothing to
    balance).
    """
    profile = _resolve(profile)
    if num_shards <= 1:
        return "rows"
    if stats.degree_skew <= profile.shard_skew_threshold:
        return "rows"
    aggregation = mp_layer_cost(stats, stats.feature_width, profile=profile)
    if partition_balance_cost(stats, profile=profile) >= aggregation:
        return "rows"
    return "edges"


# ---------------------------------------------------------------------------
# Batching decisions
# ---------------------------------------------------------------------------

def batch_member_bytes(dims: Sequence[Tuple[int, int]], stats: GraphStats,
                       formats: Sequence[str] = (),
                       width_hook: Optional[WidthHook] = None) -> float:
    """Peak aggregation working set of *one* member's plan, in bytes.

    The same quantity :func:`choose_shards` prices: the widest MP
    layer's per-edge message matrix (``4 * E * width``).  SpMM layers
    stream CSR rows block-locally and never materialise that
    intermediate, so — exactly as in the shard planner — they
    contribute nothing; an all-SpMM plan batches freely.
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
                    max_batch: Optional[int] = None,
                    profile: Optional[CostProfile] = None) -> int:
    """Packed batch size for a sweep of ``num_graphs`` same-spec graphs.

    Batching always *saves* fixed per-graph overhead — one model
    build and lowering, one executor walk, one launch per
    aggregation op instead of ``num_graphs`` — so the decision is
    driven entirely by what it *costs*: the packed per-edge message
    matrix grows linearly with the batch, and once it outgrows the
    cache-residency budget the batched run loses the locality every
    member enjoyed alone (which sharding would then have to win back).
    The planner therefore packs the largest ``B`` satisfying two
    budgets at once:

    * **message working set** — ``B *`` :func:`batch_member_bytes`
      stays within the LLC-sized residency target the shard planner
      also prices (``profile.shard_working_set_bytes``).  Note the
      *absence* of the 2x hysteresis :func:`choose_shards` applies:
      sharding pays a real per-shard setup cost, so it waits until the
      working set clearly exceeds the target — batching costs nothing
      to decline, and a borderline pack (measured: two ~31 MB GIN/Cora
      members) loses more residency than it amortises.  Batching and
      sharding can therefore never fight over the same plan: a
      planner-packed batch always sits below the point where
      ``choose_shards`` would start slicing it back up.
    * **resident footprint** — ``B *`` :func:`batch_member_footprint`
      stays within a RAM-scale budget (``profile.batch_footprint_bytes``).
      Feature slabs and structures multiply by ``B`` whatever the
      layer formats, so an all-SpMM plan — which exerts no message
      pressure at all — is still bounded: scaled social-graph sweeps
      may pack, Table-IV-size ones stay per-graph.

    Citation-scale members pack wholesale; a full-size Reddit member
    exceeds both budgets on its own and the sweep stays unbatched
    (``1``).  ``stats`` describes one representative member (sweep
    members share a spec); ``formats`` / ``width_hook`` / ``profile``
    follow :func:`choose_formats`.  ``max_batch`` defaults to
    ``profile.max_auto_batch`` — past it the per-plan amortisation is
    already >96% captured (overhead scales as 1/B) while every extra
    member keeps growing the packed operands linearly.

    Unlike :func:`choose_shards`, there is deliberately no ``fused``
    relaxation: the fused kernel bounds the message working set, but
    the footprint argument above applies to fused plans identically,
    and the message term is what keeps a *borderline* unfused pack
    from evicting the residency each member enjoyed alone.
    """
    if num_graphs <= 1:
        return 1
    profile = _resolve(profile)
    if max_batch is None:
        max_batch = profile.max_auto_batch
    ceiling = min(int(num_graphs), int(max_batch))
    per_member = batch_member_bytes(dims, stats, formats=formats,
                                    width_hook=width_hook)
    if per_member > 0.0:
        ceiling = min(ceiling,
                      int(profile.shard_working_set_bytes // per_member))
    footprint = batch_member_footprint(stats)
    if footprint > 0.0:
        ceiling = min(ceiling,
                      int(profile.batch_footprint_bytes // footprint))
    return max(1, ceiling)


def explain_choice(dims: Sequence[Tuple[int, int]], stats: GraphStats,
                   chosen: Sequence[str] = (),
                   width_hook: Optional[WidthHook] = None,
                   profile: Optional[CostProfile] = None) -> str:
    """Human-readable per-layer cost breakdown (CLI ``gsuite plan``).

    ``chosen`` is the planner's *final* per-layer selection; when given,
    each line reports it (the raw cost comparison alone can differ from
    the outcome once the model's allowed lowerings and the SpMM
    setup-amortisation gate apply).  ``profile`` must be the profile
    the decision was priced under — the reported costs come from it,
    so the breakdown can never disagree with the decision actually
    taken.
    """
    width = width_hook or _default_width
    profile = _resolve(profile)
    lines = [
        f"avg degree {stats.avg_degree:.1f}, skew {stats.degree_skew:.1f}, "
        f"feature width {stats.feature_width}, "
        f"setup {spmm_setup_cost(stats, profile=profile):.3g} instr "
        f"[costs: {profile.name}]",
        # The skew gate's inputs and hypothetical outcome (what the
        # partitioner would be *if* the plan shards), priced under the
        # same profile as everything else.
        f"shard partitioner: degree skew {stats.degree_skew:.1f} vs "
        f"threshold {profile.shard_skew_threshold:.1f} -> "
        f"{choose_partitioner(stats, num_shards=2, profile=profile)} "
        f"when sharded [costs: {profile.name}]",
    ]
    for layer, (fan_in, fan_out) in enumerate(dims):
        w_mp = width("MP", fan_in, fan_out)
        w_sp = width("SpMM", fan_in, fan_out)
        mp = mp_layer_cost(stats, w_mp, profile=profile)
        sp = spmm_layer_cost(stats, w_sp, profile=profile)
        picked = chosen[layer] if layer < len(chosen) \
            else ("SpMM" if sp < mp else "MP")
        lines.append(
            f"layer {layer} (f={fan_in}): MP {mp:.3g} (agg width {w_mp}) "
            f"vs SpMM {sp:.3g} (agg width {w_sp}) -> {picked}"
        )
    return "\n".join(lines)

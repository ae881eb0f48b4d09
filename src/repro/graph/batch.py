"""Block-diagonal graph batching: many workloads, one :class:`Graph`.

A benchmark sweep runs the *same* pipeline spec over a set of graphs —
seed variants of one dataset, or scale variants of a family — and pays
lowering, structure setup and kernel-launch overhead once per member.
:class:`BatchedGraph` packs the set into a single block-diagonal
workload instead: node ids of member ``g`` shift by ``node_offsets[g]``,
edge lists concatenate in member order, and feature matrices stack
row-wise (ragged in the *node* dimension; the feature *width* must
agree across members).  Members that all store ``X`` row-sparse stack
their CSRs, so the packed ``X`` is row-sparse too and no member's
dense view is built; otherwise the stack is dense.

Because the packed object *is* a :class:`Graph`, everything downstream
— lowering, the plan executor, format conversion, normalisation,
fusion — consumes it unchanged.  The block structure makes
that composition exact:

* adjacency blocks are disjoint, so every derived structure (CSR/CSC,
  degrees, GCN normalisation) factors per member;
* member edges keep their original relative order, so each destination
  node's reduction sequence is identical to the unbatched run and
  sparse aggregation stays **bit-for-bit**;
* dense transforms are the one row-count-sensitive step (BLAS blocking
  varies with the row count), so the plan executor runs them
  *segment-local* over :meth:`node_segments` — see
  :class:`repro.plan.ir.BatchSegmentMap`.  The first layer is excepted
  twice over: when it multiplies the packed feature matrix, each
  member launch reads that member's own resident row-sparse features
  (:meth:`Graph.feature_rows`) — a row-count-independent product — and
  an aggregation over the packed features reads the members' rows
  stacked; a dense stack made here is never scanned for them.

:meth:`unpack` splits any packed per-node result back into per-member
blocks, closing the loop: ``unpack(run(pack(graphs)))`` equals running
every member alone, bitwise.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np
import scipy.sparse as _sp

from repro.errors import GraphFormatError
from repro.graph.graph import Graph

__all__ = ["BatchedGraph"]


class BatchedGraph(Graph):
    """A set of graphs packed into one block-diagonal workload.

    Parameters
    ----------
    members:
        The member graphs, in pack order.  All members must agree on
        feature presence and feature *width* (node counts may differ —
        the stacking is ragged in that dimension); members with no
        edges are fine.  Mixed or ragged-width members raise
        :class:`~repro.errors.GraphFormatError`.
    name:
        Workload name; defaults to ``batch(<m1>+<m2>+...)``.

    Attributes
    ----------
    members:
        The original member graphs (kept for unpacking and reporting).
    node_offsets / edge_offsets:
        Prefix sums (length ``len(members) + 1``) giving each member's
        node-id shift and edge-range start; ``node_offsets`` doubles as
        the per-graph *row offsets* of the block-diagonal adjacency in
        CSR/CSC form.
    """

    def __init__(self, members: Sequence[Graph], name: str = ""):
        members = list(members)
        if not members:
            raise GraphFormatError("a batch needs at least one member graph")
        widths = [g.num_features for g in members]
        featured = [g.stored_features is not None for g in members]
        if any(featured) and not all(featured):
            raise GraphFormatError(
                "cannot batch graphs with and without features: "
                f"feature presence per member is {featured}"
            )
        if len(set(widths)) > 1:
            raise GraphFormatError(
                "cannot batch ragged feature widths: members carry "
                f"widths {widths}; pad or project to a common width "
                "before batching"
            )

        node_offsets = np.zeros(len(members) + 1, dtype=np.int64)
        edge_offsets = np.zeros(len(members) + 1, dtype=np.int64)
        for i, g in enumerate(members):
            node_offsets[i + 1] = node_offsets[i] + g.num_nodes
            edge_offsets[i + 1] = edge_offsets[i] + g.num_edges

        if edge_offsets[-1]:
            edge_index = np.hstack([
                g.edge_index + node_offsets[i]
                for i, g in enumerate(members) if g.num_edges
            ])
        else:
            edge_index = np.zeros((2, 0), dtype=np.int64)

        features = None
        stored = [g.stored_features for g in members]
        if all(_sp.issparse(x) for x in stored):
            features = _sp.vstack(stored, format="csr")
        elif all(featured):
            features = np.empty((int(node_offsets[-1]), widths[0]),
                                dtype=np.float32)
            for i, g in enumerate(members):
                features[node_offsets[i]:node_offsets[i + 1]] = g.features

        edge_weight = None
        if any(g.edge_weight is not None for g in members):
            edge_weight = np.concatenate([
                g.edge_values() for g in members
            ]) if edge_offsets[-1] else np.zeros(0, dtype=np.float32)

        super().__init__(
            edge_index,
            features=features,
            num_nodes=int(node_offsets[-1]),
            edge_weight=edge_weight,
            name=name or "batch(%s)" % "+".join(
                g.name or "?" for g in members),
        )
        self.members: List[Graph] = members
        self.node_offsets = node_offsets
        self.edge_offsets = edge_offsets

    # -- batch geometry ------------------------------------------------------
    @property
    def num_graphs(self) -> int:
        """Number of packed member graphs."""
        return len(self.members)

    def node_segments(self) -> List[Tuple[int, int]]:
        """Per-member ``(lo, hi)`` node-row ranges of the packed layout."""
        return [(int(self.node_offsets[i]), int(self.node_offsets[i + 1]))
                for i in range(self.num_graphs)]

    def member_names(self) -> Tuple[str, ...]:
        """Member workload names, in pack order."""
        return tuple(g.name for g in self.members)

    def _build_feature_rows(self, x):
        """The members' resident row-sparse forms, row-stacked, or
        ``None`` unless every member keeps one.

        A packed row-sparse ``X`` already is that stack.  A dense one's
        values are the members', so it is never scanned: a whole-batch
        reader of ``X`` (an aggregation) gets exactly the rows each
        member's solo run reads.
        """
        if _sp.issparse(x):
            return x
        parts = [g.feature_rows(g.stored_features) for g in self.members]
        if any(part is None for part in parts):
            return None
        return _sp.vstack(parts, format="csr")

    # -- unpacking -----------------------------------------------------------
    def unpack(self, packed: np.ndarray) -> List[np.ndarray]:
        """Split a packed per-node array back into per-member blocks.

        ``packed`` must have ``num_nodes`` leading rows (a plan output,
        a feature matrix, a degree vector...); the return holds one
        view per member, in pack order.
        """
        packed = np.asarray(packed)
        if packed.shape[0] != self.num_nodes:
            raise GraphFormatError(
                f"cannot unpack {packed.shape[0]} rows over a batch of "
                f"{self.num_nodes} nodes"
            )
        return [packed[lo:hi] for lo, hi in self.node_segments()]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BatchedGraph(name={self.name!r}, num_graphs={self.num_graphs}, "
            f"num_nodes={self.num_nodes}, num_edges={self.num_edges})"
        )

"""Zero-padded solo graphs: the reference side of mixed-width batches.

The packed feature matrix of a :class:`~repro.graph.BatchedGraph`
stacks row-wise, so members must agree on ``f``.  Cross-dataset serving
traffic rarely does (Cora requests carry 1433 features, Pubmed 500), so
the service packs a group at its widest member's width
(``BatchedGraph(pad_width=)`` writes the zero columns as it packs — no
padded copy of any member exists).  :func:`pad_features` builds the
graph the *reference* runs on: one member alone, padded the same way.

The parity contract under padding is deliberately precise: a padded
member's batched output is bit-for-bit identical to *the same request
executed solo at the same pad width*.  It is **not** identical to the
unpadded solo run — the first layer's seeded weight matrix is shaped by
the input width, so widening the input re-draws ``W0`` and changes the
arithmetic.  Responses therefore record the width they executed at
(:attr:`~repro.serve.requests.InferenceResponse.padded_to`), and every
parity check in the suite re-runs the reference at that width.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ServeError
from repro.graph import Graph

__all__ = ["pad_features"]


def pad_features(graph: Graph, width: int) -> Graph:
    """``graph`` with its feature matrix zero-padded to ``width`` columns.

    The same graph comes back untouched when it already has ``width``
    features; narrowing refuses (truncation would silently change the
    workload).  Structure, weights and name-derived identity are
    preserved — only zero columns are appended — so the padded graph's
    plan-cache signature is stable across repeat requests.
    """
    if graph.features is None:
        raise ServeError(
            f"cannot pad a graph without features: {graph.name!r}")
    have = graph.num_features
    if width == have:
        return graph
    if width < have:
        raise ServeError(
            f"cannot pad {graph.name!r} from {have} features down to "
            f"{width}; padding only widens")
    padded = np.zeros((graph.num_nodes, width), dtype=np.float32)
    padded[:, :have] = graph.features
    return Graph(graph.edge_index, features=padded,
                 num_nodes=graph.num_nodes,
                 edge_weight=graph.edge_weight,
                 name=f"{graph.name}+pad{width}")

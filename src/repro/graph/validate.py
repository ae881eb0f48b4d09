"""Consistency checks for graphs.

The loaders call :func:`validate_graph` after every generator/transform so
that structural corruption (out-of-range ids, NaN features or edge
weights) is caught at the boundary rather than inside a kernel.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.errors import GraphFormatError
from repro.graph.graph import Graph

__all__ = ["validate_graph"]


def validate_graph(graph: Graph) -> Graph:
    """Raise :class:`GraphFormatError` if ``graph`` is inconsistent.

    Returns the graph unchanged on success so the call can be chained.
    """
    if graph.edge_index.shape[0] != 2:
        raise GraphFormatError("edge_index must have two rows")
    if graph.num_edges:
        lo = int(graph.edge_index.min())
        hi = int(graph.edge_index.max())
        if lo < 0:
            raise GraphFormatError(f"edge_index contains negative id {lo}")
        if hi >= graph.num_nodes:
            raise GraphFormatError(
                f"edge_index references node {hi} but num_nodes={graph.num_nodes}"
            )
    stored = graph.stored_features
    if stored is not None:
        if stored.shape[0] != graph.num_nodes:
            raise GraphFormatError("feature row count does not match num_nodes")
        # The stored values: a row-sparse X's dense view holds no others.
        if not np.all(np.isfinite(stored.data if sp.issparse(stored)
                                  else stored)):
            raise GraphFormatError("features contain NaN or infinite values")
    if graph.edge_weight is not None:
        if graph.edge_weight.shape[0] != graph.num_edges:
            raise GraphFormatError("edge_weight length does not match num_edges")
        if not np.all(np.isfinite(graph.edge_weight)):
            raise GraphFormatError("edge_weight contains NaN or infinite values")
    return graph


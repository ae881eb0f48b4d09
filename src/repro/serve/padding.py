"""Zero-padded solo graphs: a reference helper, not a serving step.

The service never pads: requests batch only at equal feature width, so
every response is the plain solo run of its request.
:func:`pad_features` stays for ``solo_reference(request, pad_to=W)``,
which the end-to-end harness (``benchmarks/e2e``) calls by name when it
builds its reference table.  A padded run is a *different* computation
from the unpadded one — the first layer's seeded weight matrix is
shaped by the input width, so widening the input re-draws ``W0``.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as _sp

from repro.errors import ServeError
from repro.graph import Graph

__all__ = ["pad_features"]


def pad_features(graph: Graph, width: int) -> Graph:
    """``graph`` with its feature matrix zero-padded to ``width`` columns.

    The same graph comes back untouched when it already has ``width``
    features; narrowing refuses (truncation would silently change the
    workload).  Structure and edge weights are preserved — only zero
    columns are appended — and the name gains a ``+pad<width>`` suffix.
    A row-sparse ``X`` stays row-sparse (its CSR is widened, sharing
    the stored arrays); a dense one is copied into a wider dense array.
    """
    if graph.stored_features is None:
        raise ServeError(
            f"cannot pad a graph without features: {graph.name!r}")
    have = graph.num_features
    if width == have:
        return graph
    if width < have:
        raise ServeError(
            f"cannot pad {graph.name!r} from {have} features down to "
            f"{width}; padding only widens")
    x = graph.stored_features
    if _sp.issparse(x):
        # Zero columns store nothing: a row-sparse X pads by widening.
        padded = _sp.csr_matrix((x.data, x.indices, x.indptr),
                                shape=(graph.num_nodes, width))
    else:
        padded = np.zeros((graph.num_nodes, width), dtype=np.float32)
        padded[:, :have] = x
    return Graph(graph.edge_index, features=padded,
                 num_nodes=graph.num_nodes,
                 edge_weight=graph.edge_weight,
                 name=f"{graph.name}+pad{width}")

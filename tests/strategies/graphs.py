"""Graph-shaped Hypothesis strategies.

The suite's adversarial graph space in one place: random power-law
graphs spanning the regimes the plan layer discriminates on — flat vs
heavy-tailed in-degree, hub-first (degree-sorted export order) vs
shuffled layouts, isolated-node tails, and empty edge sets.
Generation is a pure function of drawn integers (one seeded
``default_rng`` per example), so failing examples shrink and replay
deterministically.
"""

import numpy as np
from hypothesis import strategies as st

__all__ = ["power_law_graphs"]


@st.composite
def power_law_graphs(draw, min_nodes: int = 6, max_nodes: int = 48,
                     max_avg_degree: int = 5, max_width: int = 12,
                     width: int = 0):
    """A random power-law :class:`~repro.graph.Graph` with features.

    In-edge destinations follow a Zipf-like law over the node ids, so
    low ids are hubs; ``hubs_first`` keeps that degree-sorted layout or
    shuffles it away.  Degree
    zero is allowed — edgeless graphs and isolated nodes are part of
    the space.  ``width`` pins the feature width instead of drawing it
    (member lists that must batch together share one width).
    """
    from repro.graph import Graph

    num_nodes = draw(st.integers(min_nodes, max_nodes))
    avg_degree = draw(st.integers(0, max_avg_degree))
    exponent = draw(st.sampled_from((2.1, 2.5, 3.0)))
    width = width or draw(st.integers(1, max_width))
    seed = draw(st.integers(0, 2**31 - 1))
    hubs_first = draw(st.booleans())

    rng = np.random.default_rng(seed)
    num_edges = num_nodes * avg_degree
    weights = np.arange(1, num_nodes + 1,
                        dtype=np.float64) ** (1.0 - exponent)
    weights /= weights.sum()
    dst = rng.choice(num_nodes, size=num_edges, p=weights)
    src = rng.integers(0, num_nodes, size=num_edges)
    if not hubs_first:
        perm = rng.permutation(num_nodes)
        src, dst = perm[src], perm[dst]
    features = rng.standard_normal((num_nodes, width)).astype(np.float32)
    return Graph(np.vstack([src, dst]).astype(np.int64),
                 num_nodes=num_nodes, features=features,
                 name=f"powerlaw-{num_nodes}n-{num_edges}e")
